package core

import "fmt"

// DeadTrainingMode selects which evictions increment the dead counters.
// The literal Algorithm 6 trains on every eviction, but a predictive
// policy that trains on its own evictions can reinforce premature
// evictions; the restricted modes train only on evidence that is
// unbiased with respect to the policy's own decisions.
type DeadTrainingMode uint8

const (
	// TrainLRUHalf (default, the tuned configuration) trains dead on
	// any eviction from the LRU half of the recency stack: death
	// evidence stays unbiased with respect to the policy's own early
	// evictions, while last-reuse death learning for multi-reuse blocks
	// is preserved.
	TrainLRUHalf DeadTrainingMode = iota
	// TrainZeroReuseLRU trains dead only when the victim saw no reuse
	// this generation and occupied the exact LRU position — the most
	// conservative evidence.
	TrainZeroReuseLRU
	// TrainLRUOnly trains dead on evictions from the exact LRU position
	// regardless of reuse.
	TrainLRUOnly
	// TrainAllEvictions is the literal Algorithm 6: every eviction
	// trains dead.
	TrainAllEvictions
)

// String names the mode for reports.
func (m DeadTrainingMode) String() string {
	switch m {
	case TrainZeroReuseLRU:
		return "zero-reuse-lru"
	case TrainLRUOnly:
		return "lru-only"
	case TrainAllEvictions:
		return "all-evictions"
	default:
		return "lru-half"
	}
}

// Aggregation selects how the per-table dead votes are combined into one
// prediction.
type Aggregation uint8

const (
	// MajorityVote predicts dead when at least half of the thresholded
	// counters vote dead — GHRP's choice (§III-C), which tolerates
	// aliasing in one table without requiring a high threshold.
	MajorityVote Aggregation = iota
	// Summation adds the raw counters and compares the sum against
	// numTables x threshold, the SDBP-style aggregation the paper
	// compares against. Kept for the ablation study.
	Summation
)

// String names the aggregation for reports.
func (a Aggregation) String() string {
	if a == Summation {
		return "sum"
	}
	return "majority"
}

// Config parameterizes a GHRP predictor. The zero value selects the
// paper's configuration (three 4096-entry tables of 2-bit counters,
// 16-bit history, majority vote).
type Config struct {
	// TableBits is the log2 of each prediction table's entry count.
	// Default 12 (4,096 entries, §IV-A).
	TableBits int
	// NumTables is how many skewed tables vote. Default 3.
	NumTables int
	// CounterMax is the saturating counter maximum. Default 3 (2-bit).
	CounterMax int
	// HistoryBits is the path history register width. Default 16,
	// recording four previous accesses (§III-A).
	HistoryBits int
	// ShiftPerAccess is how far the history shifts per access. Default 4.
	ShiftPerAccess int
	// PCBitsPerAccess is how many low-order PC bits shift in. Default 3
	// (followed by one zero bit). Set to -1 for zero bits: the history
	// register then stays empty and signatures degenerate to the bare
	// PC, the PC-only ablation.
	PCBitsPerAccess int
	// DeadThreshold is the counter value at or above which a table votes
	// dead for I-cache predictions. Default 2.
	DeadThreshold int
	// BypassThreshold is the counter value at or above which a table
	// votes to bypass the incoming block. Default 3 (saturated).
	BypassThreshold int
	// BTBDeadThreshold is the BTB's dead vote threshold, tuned separately
	// from the I-cache's to minimize false dead predictions (§III-E).
	// Default 3.
	BTBDeadThreshold int
	// BypassEnabled gates the bypass optimization. Default on; the
	// DisableBypass field turns it off for ablations.
	DisableBypass bool
	// Aggregation selects majority vote (default) or summation.
	Aggregation Aggregation
	// DeadTraining selects which evictions count as death evidence; see
	// the DeadTraining constants. Part of the training tuning for
	// instruction streams; the ablation bench compares all modes.
	DeadTraining DeadTrainingMode
	// BypassEscapeShift inserts one in 2^BypassEscapeShift would-be
	// bypassed blocks anyway, so a signature that saturates dead while
	// its blocks are actually live can be re-observed and retrained.
	// Default 5 (1/32). Set to -1 to disable the escape.
	BypassEscapeShift int
}

// WithDefaults returns cfg with zero fields replaced by the paper's
// parameters.
func (c Config) WithDefaults() Config {
	if c.TableBits == 0 {
		c.TableBits = 12
	}
	if c.NumTables == 0 {
		c.NumTables = 3
	}
	if c.CounterMax == 0 {
		c.CounterMax = 3
	}
	if c.HistoryBits == 0 {
		c.HistoryBits = 16
	}
	if c.ShiftPerAccess == 0 {
		c.ShiftPerAccess = 4
	}
	if c.PCBitsPerAccess == 0 {
		c.PCBitsPerAccess = 3
	}
	if c.DeadThreshold == 0 {
		c.DeadThreshold = 2
	}
	if c.BypassThreshold == 0 {
		c.BypassThreshold = 3
	}
	if c.BTBDeadThreshold == 0 {
		c.BTBDeadThreshold = 3
	}
	if c.BypassEscapeShift == 0 {
		c.BypassEscapeShift = 5
	}
	return c
}

// Validate reports configurations that cannot be instantiated.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.TableBits < 1 || c.TableBits > 24 {
		return fmt.Errorf("core: TableBits %d out of range [1,24]", c.TableBits)
	}
	if c.NumTables < 1 || c.NumTables > maxTables {
		return fmt.Errorf("core: NumTables %d out of range [1,%d]", c.NumTables, maxTables)
	}
	if c.CounterMax < 1 || c.CounterMax > 255 {
		return fmt.Errorf("core: CounterMax %d out of range [1,255]", c.CounterMax)
	}
	if c.HistoryBits < 1 || c.HistoryBits > 16 {
		return fmt.Errorf("core: HistoryBits %d out of range [1,16]", c.HistoryBits)
	}
	if c.ShiftPerAccess < 1 || c.ShiftPerAccess > c.HistoryBits {
		return fmt.Errorf("core: ShiftPerAccess %d out of range [1,%d]", c.ShiftPerAccess, c.HistoryBits)
	}
	if c.PCBitsPerAccess < -1 || c.PCBitsPerAccess >= c.ShiftPerAccess {
		return fmt.Errorf("core: PCBitsPerAccess %d must leave one zero bit under ShiftPerAccess %d", c.PCBitsPerAccess, c.ShiftPerAccess)
	}
	if c.DeadThreshold < 1 || c.DeadThreshold > c.CounterMax {
		return fmt.Errorf("core: DeadThreshold %d out of range [1,%d]", c.DeadThreshold, c.CounterMax)
	}
	if c.BypassThreshold < c.DeadThreshold || c.BypassThreshold > c.CounterMax {
		return fmt.Errorf("core: BypassThreshold %d out of range [%d,%d]", c.BypassThreshold, c.DeadThreshold, c.CounterMax)
	}
	if c.BTBDeadThreshold < 1 || c.BTBDeadThreshold > c.CounterMax {
		return fmt.Errorf("core: BTBDeadThreshold %d out of range [1,%d]", c.BTBDeadThreshold, c.CounterMax)
	}
	if c.BypassEscapeShift < -1 || c.BypassEscapeShift > 20 {
		return fmt.Errorf("core: BypassEscapeShift %d out of range [-1,20]", c.BypassEscapeShift)
	}
	return nil
}

// Storage describes the SRAM cost of a GHRP deployment, for Table I.
type Storage struct {
	TableBits        int // per prediction-table entry counter bits x entries
	TablesTotalBits  int
	MetaBitsPerBlock int
	MetaTotalBits    int
	HistoryBits      int
	TotalBits        int
}

// KB returns the total storage in kilobytes (1024 bytes).
func (s Storage) KB() float64 { return float64(s.TotalBits) / 8 / 1024 }

// StorageFor computes GHRP's storage for an I-cache with the given number
// of blocks. Per-block metadata is 3 LRU stack-position bits, a valid
// bit, the signature, and a prediction bit (§III-B); the tables hold
// counters of log2(CounterMax+1) bits; two history registers (speculative
// and retired) complete the budget.
func (c Config) StorageFor(blocks int) Storage {
	c = c.WithDefaults()
	counterBits := 0
	for v := c.CounterMax; v > 0; v >>= 1 {
		counterBits++
	}
	lruBits := 3
	metaPerBlock := lruBits + 1 + c.HistoryBits + 1
	var s Storage
	s.TableBits = counterBits << c.TableBits
	s.TablesTotalBits = c.NumTables * s.TableBits
	s.MetaBitsPerBlock = metaPerBlock
	s.MetaTotalBits = blocks * metaPerBlock
	s.HistoryBits = 2 * c.HistoryBits
	s.TotalBits = s.TablesTotalBits + s.MetaTotalBits + s.HistoryBits
	return s
}
