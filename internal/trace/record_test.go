package trace

import (
	"strings"
	"testing"
)

func TestBranchTypeString(t *testing.T) {
	want := map[BranchType]string{
		CondDirect:   "cond",
		UncondDirect: "jump",
		DirectCall:   "call",
		IndirectCall: "icall",
		IndirectJump: "ijump",
		Return:       "ret",
	}
	for bt, name := range want {
		if got := bt.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", bt, got, name)
		}
	}
	if got := BranchType(99).String(); !strings.Contains(got, "99") {
		t.Errorf("invalid type String() = %q, want to mention 99", got)
	}
}

func TestBranchTypeValid(t *testing.T) {
	for bt := BranchType(0); bt < numBranchTypes; bt++ {
		if !bt.Valid() {
			t.Errorf("%v.Valid() = false, want true", bt)
		}
	}
	if BranchType(numBranchTypes).Valid() {
		t.Error("out-of-range type reported valid")
	}
}

func TestBranchTypeConditional(t *testing.T) {
	if !CondDirect.Conditional() {
		t.Error("CondDirect not conditional")
	}
	for _, bt := range []BranchType{UncondDirect, DirectCall, IndirectCall, IndirectJump, Return} {
		if bt.Conditional() {
			t.Errorf("%v reported conditional", bt)
		}
	}
}

func TestBranchTypeUsesBTB(t *testing.T) {
	if Return.UsesBTB() {
		t.Error("returns must not use the BTB (return address stack)")
	}
	for _, bt := range []BranchType{CondDirect, UncondDirect, DirectCall, IndirectCall, IndirectJump} {
		if !bt.UsesBTB() {
			t.Errorf("%v should use the BTB", bt)
		}
	}
}

func TestRecordNextPC(t *testing.T) {
	taken := Record{PC: 0x1000, Target: 0x2000, Type: CondDirect, Taken: true}
	if got := taken.NextPC(4); got != 0x2000 {
		t.Errorf("taken NextPC = %#x, want 0x2000", got)
	}
	not := Record{PC: 0x1000, Target: 0x2000, Type: CondDirect, Taken: false}
	if got := not.NextPC(4); got != 0x1004 {
		t.Errorf("not-taken NextPC = %#x, want 0x1004", got)
	}
	if got := not.FallThrough(4); got != 0x1004 {
		t.Errorf("FallThrough = %#x, want 0x1004", got)
	}
}

func TestRecordValidate(t *testing.T) {
	cases := []struct {
		name string
		rec  Record
		ok   bool
	}{
		{"good conditional", Record{PC: 4, Target: 8, Type: CondDirect, Taken: true}, true},
		{"good not-taken", Record{PC: 4, Target: 8, Type: CondDirect, Taken: false}, true},
		{"good call", Record{PC: 4, Target: 8, Type: DirectCall, Taken: true}, true},
		{"bad type", Record{PC: 4, Target: 8, Type: BranchType(42), Taken: true}, false},
		{"not-taken jump", Record{PC: 4, Target: 8, Type: UncondDirect, Taken: false}, false},
		{"taken zero target", Record{PC: 4, Target: 0, Type: CondDirect, Taken: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rec.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestCategory(t *testing.T) {
	names := map[Category]string{
		ShortMobile: "SHORT-MOBILE",
		LongMobile:  "LONG-MOBILE",
		ShortServer: "SHORT-SERVER",
		LongServer:  "LONG-SERVER",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
		if !c.Valid() {
			t.Errorf("%v not valid", c)
		}
	}
	if Category(9).Valid() {
		t.Error("Category(9) reported valid")
	}
	if !LongMobile.Long() || !LongServer.Long() || ShortMobile.Long() || ShortServer.Long() {
		t.Error("Long() classification wrong")
	}
	if !ShortServer.Server() || !LongServer.Server() || ShortMobile.Server() || LongMobile.Server() {
		t.Error("Server() classification wrong")
	}
}
