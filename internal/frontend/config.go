// Package frontend implements the trace-driven front-end simulator of the
// paper's methodology (§IV): branch records are consumed in order, the
// instruction fetch stream is reconstructed between branch targets, each
// fetch block accesses the I-cache, taken branches access the BTB, a
// hashed perceptron predicts conditional directions, and GHRP's
// speculative path history is managed (with optional wrong-path pollution
// and recovery, §III-F). The simulator is not cycle accurate; the figure
// of merit is misses per 1000 instructions (MPKI) measured after warm-up.
package frontend

import (
	"fmt"
	"strings"

	"ghrpsim/internal/core"
	"ghrpsim/internal/perceptron"
	"ghrpsim/internal/policies"
)

// ICacheConfig is the instruction cache geometry.
type ICacheConfig struct {
	SizeBytes  int
	BlockBytes int
	Ways       int
}

// DefaultICache is the paper's primary configuration: 64KB, 8-way, 64B
// blocks (§V-A).
func DefaultICache() ICacheConfig {
	return ICacheConfig{SizeBytes: 64 * 1024, BlockBytes: 64, Ways: 8}
}

// Sets returns the set count.
func (c ICacheConfig) Sets() int {
	if c.BlockBytes == 0 || c.Ways == 0 {
		return 0
	}
	return c.SizeBytes / c.BlockBytes / c.Ways
}

// Blocks returns the total block frames.
func (c ICacheConfig) Blocks() int {
	if c.BlockBytes == 0 {
		return 0
	}
	return c.SizeBytes / c.BlockBytes
}

// Validate rejects impossible geometries.
func (c ICacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("frontend: icache %+v has non-positive fields", c)
	}
	sets := c.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("frontend: icache %+v yields %d sets (need power of two)", c, sets)
	}
	return nil
}

// String renders the geometry like "64KB/8-way/64B".
func (c ICacheConfig) String() string {
	return fmt.Sprintf("%dKB/%d-way/%dB", c.SizeBytes/1024, c.Ways, c.BlockBytes)
}

// BTBConfig is the branch target buffer geometry.
type BTBConfig struct {
	Entries int
	Ways    int
}

// DefaultBTB is the paper's 4,096-entry BTB modeled after the Samsung
// Mongoose, 4-way (§V-B, Fig. 10).
func DefaultBTB() BTBConfig { return BTBConfig{Entries: 4096, Ways: 4} }

// Sets returns the set count.
func (c BTBConfig) Sets() int {
	if c.Ways == 0 {
		return 0
	}
	return c.Entries / c.Ways
}

// Validate rejects impossible geometries.
func (c BTBConfig) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 {
		return fmt.Errorf("frontend: btb %+v has non-positive fields", c)
	}
	sets := c.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("frontend: btb %+v yields %d sets (need power of two)", c, sets)
	}
	return nil
}

// String renders the geometry like "4096-entry/4-way".
func (c BTBConfig) String() string {
	return fmt.Sprintf("%d-entry/%d-way", c.Entries, c.Ways)
}

// WrongPathMode controls modeling of wrong-path fetch after conditional
// mispredictions.
type WrongPathMode uint8

const (
	// WrongPathOff ignores wrong-path effects (the baseline trace-driven
	// methodology).
	WrongPathOff WrongPathMode = iota
	// WrongPathInject fetches a few wrong-path blocks after each
	// misprediction (polluting caches and speculative history) and then
	// recovers GHRP's speculative history from the retired history.
	WrongPathInject
	// WrongPathNoRecover injects pollution but never recovers the
	// speculative history — the ablation of §III-F's recovery mechanism.
	WrongPathNoRecover
)

// Config assembles a complete front-end configuration.
type Config struct {
	ICache     ICacheConfig
	BTB        BTBConfig
	InstrBytes uint64
	// WarmupFraction of total instructions warms structures without
	// counting statistics; WarmupCap bounds it (the paper: half the
	// trace, capped at 200M instructions).
	WarmupFraction float64
	WarmupCap      uint64
	// GHRP parameterizes the GHRP policy when selected.
	GHRP core.Config
	// SDBP parameterizes the modified SDBP policy when selected.
	SDBP policies.SDBPConfig
	// Branch parameterizes the hashed perceptron direction predictor.
	Branch perceptron.Config
	// WrongPath selects wrong-path modeling; WrongPathDepth is how many
	// sequential blocks are fetched down the wrong path.
	WrongPath      WrongPathMode
	WrongPathDepth int
	// RandomSeed seeds the Random replacement policy.
	RandomSeed uint64
	// NextLinePrefetch enables a next-line I-cache prefetcher: each
	// demand miss also brings in the following block. Prefetching is the
	// dominant theme of prior I-cache work the paper contrasts with
	// (§II-E); this option lets experiments study how it composes with
	// replacement policies.
	NextLinePrefetch bool
}

// DefaultConfig mirrors the paper's primary setup.
func DefaultConfig() Config {
	return Config{
		ICache:         DefaultICache(),
		BTB:            DefaultBTB(),
		InstrBytes:     4,
		WarmupFraction: 0.5,
		WarmupCap:      200_000_000,
		WrongPathDepth: 2,
		RandomSeed:     1,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if err := c.ICache.Validate(); err != nil {
		return err
	}
	if err := c.BTB.Validate(); err != nil {
		return err
	}
	if c.InstrBytes == 0 || c.InstrBytes&(c.InstrBytes-1) != 0 {
		return fmt.Errorf("frontend: InstrBytes %d must be a power of two", c.InstrBytes)
	}
	if c.WarmupFraction < 0 || c.WarmupFraction >= 1 {
		return fmt.Errorf("frontend: WarmupFraction %v out of [0,1)", c.WarmupFraction)
	}
	if c.WrongPathDepth < 0 {
		return fmt.Errorf("frontend: negative WrongPathDepth")
	}
	return c.SDBP.Validate()
}

// PolicyKind names a replacement policy for both I-cache and BTB.
type PolicyKind uint8

const (
	// PolicyLRU is least-recently-used, the baseline.
	PolicyLRU PolicyKind = iota
	// PolicyRandom evicts uniformly at random.
	PolicyRandom
	// PolicyFIFO evicts in insertion order.
	PolicyFIFO
	// PolicySRRIP is static re-reference interval prediction.
	PolicySRRIP
	// PolicySDBP is the modified sampling-based dead block predictor.
	PolicySDBP
	// PolicyGHRP is the paper's global history reuse predictor.
	PolicyGHRP
	// PolicySHiP is signature-based hit prediction (Wu et al.), the
	// other PC-based scheme the paper names in §II-A; included as an
	// extended baseline.
	PolicySHiP
	// PolicyDIP is dynamic insertion (LRU/BIP set dueling), an extended
	// thrash-resistance baseline.
	PolicyDIP

	numPolicies
)

// String names the policy as in the paper's figures.
func (k PolicyKind) String() string {
	switch k {
	case PolicyLRU:
		return "LRU"
	case PolicyRandom:
		return "Random"
	case PolicyFIFO:
		return "FIFO"
	case PolicySRRIP:
		return "SRRIP"
	case PolicySDBP:
		return "SDBP"
	case PolicyGHRP:
		return "GHRP"
	case PolicySHiP:
		return "SHiP"
	case PolicyDIP:
		return "DIP"
	default:
		return fmt.Sprintf("PolicyKind(%d)", uint8(k))
	}
}

// ParsePolicy resolves a case-insensitive policy name.
func ParsePolicy(name string) (PolicyKind, error) {
	for k := PolicyKind(0); k < numPolicies; k++ {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("frontend: unknown policy %q", name)
}

// PaperPolicies returns the five policies the paper evaluates, in its
// reporting order.
func PaperPolicies() []PolicyKind {
	return []PolicyKind{PolicyLRU, PolicyRandom, PolicySRRIP, PolicySDBP, PolicyGHRP}
}

// ExtendedPolicies returns the paper's five plus the extra baselines
// this library implements (FIFO, SHiP, DIP).
func ExtendedPolicies() []PolicyKind {
	return []PolicyKind{PolicyLRU, PolicyFIFO, PolicyRandom, PolicySRRIP, PolicyDIP, PolicySHiP, PolicySDBP, PolicyGHRP}
}
