// Package trace defines the branch-trace model used throughout the
// simulator: CBP5-style branch records, a compact binary on-disk format,
// and reconstruction of the instruction fetch stream between branch
// targets (paper §IV-A).
//
// The Championship Branch Prediction traces contain one record for every
// branch — conditional, unconditional, call, return, and indirect — with
// its program counter, taken outcome, and target. All instructions between
// a branch target and the next branch are implied to be sequential, which
// is what FetchReconstructor exploits to rebuild the I-cache access
// stream.
package trace

import "fmt"

// BranchType classifies a branch record. The set mirrors the branch
// classes distinguished by the CBP5 trace format.
type BranchType uint8

const (
	// CondDirect is a conditional branch with a PC-relative target.
	CondDirect BranchType = iota
	// UncondDirect is an unconditional jump with a PC-relative target.
	UncondDirect
	// DirectCall is a call with a statically known target.
	DirectCall
	// IndirectCall is a call through a register or memory operand.
	IndirectCall
	// IndirectJump is a computed jump (e.g. a switch table).
	IndirectJump
	// Return transfers control back to the caller.
	Return

	numBranchTypes
)

// String returns the conventional short name for the branch type.
func (t BranchType) String() string {
	switch t {
	case CondDirect:
		return "cond"
	case UncondDirect:
		return "jump"
	case DirectCall:
		return "call"
	case IndirectCall:
		return "icall"
	case IndirectJump:
		return "ijump"
	case Return:
		return "ret"
	default:
		return fmt.Sprintf("BranchType(%d)", uint8(t))
	}
}

// Valid reports whether t is one of the defined branch types.
func (t BranchType) Valid() bool { return t < numBranchTypes }

// Conditional reports whether the branch consults a direction predictor.
// Only conditional direct branches can be not-taken in this model.
func (t BranchType) Conditional() bool { return t == CondDirect }

// UsesBTB reports whether a taken instance of this branch type looks up
// the branch target buffer for its target. Returns use the return address
// stack in real front ends, so they are excluded, matching the BTB model
// in the paper (targets of previously taken branches).
func (t BranchType) UsesBTB() bool { return t != Return }

// Record is a single branch execution: the branch instruction's address,
// its class, whether it was taken, and the target it transferred to when
// taken. For not-taken conditional branches Target records the would-be
// target so the trace is self-contained.
type Record struct {
	PC     uint64
	Target uint64
	Type   BranchType
	Taken  bool
}

// FallThrough returns the address of the instruction after the branch,
// given a fixed instruction size.
func (r Record) FallThrough(instrBytes uint64) uint64 { return r.PC + instrBytes }

// NextPC returns the address control flow continues at after this record.
func (r Record) NextPC(instrBytes uint64) uint64 {
	if r.Taken {
		return r.Target
	}
	return r.FallThrough(instrBytes)
}

// Validate reports a descriptive error when a record is malformed.
func (r Record) Validate() error {
	if !r.Type.Valid() {
		return fmt.Errorf("trace: invalid branch type %d", uint8(r.Type))
	}
	if !r.Type.Conditional() && !r.Taken {
		return fmt.Errorf("trace: %s at %#x must be taken", r.Type, r.PC)
	}
	if r.Taken && r.Target == 0 {
		return fmt.Errorf("trace: taken %s at %#x has zero target", r.Type, r.PC)
	}
	return nil
}

// Category labels a workload with the CBP5 suite class it belongs to.
type Category uint8

const (
	ShortMobile Category = iota
	LongMobile
	ShortServer
	LongServer

	numCategories
)

// String returns the CBP5-style category name.
func (c Category) String() string {
	switch c {
	case ShortMobile:
		return "SHORT-MOBILE"
	case LongMobile:
		return "LONG-MOBILE"
	case ShortServer:
		return "SHORT-SERVER"
	case LongServer:
		return "LONG-SERVER"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// Valid reports whether c is a defined category.
func (c Category) Valid() bool { return c < numCategories }

// Long reports whether the category is one of the LONG classes, which the
// paper caps at one billion simulated instructions.
func (c Category) Long() bool { return c == LongMobile || c == LongServer }

// Server reports whether the category is one of the SERVER classes, which
// have larger instruction footprints.
func (c Category) Server() bool { return c == ShortServer || c == LongServer }
