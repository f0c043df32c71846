package policies

import "ghrpsim/internal/cache"

// DIPConfig parameterizes Dynamic Insertion Policy (Qureshi et al., ISCA
// 2007), included as an additional thrash-resistant baseline beyond the
// paper's five policies.
type DIPConfig struct {
	// Epsilon is the reciprocal of BIP's MRU-insertion probability:
	// 1 in Epsilon insertions go to the MRU position, the rest stay at
	// LRU. Default 32.
	Epsilon int
	// LeaderSets is the number of leader sets dedicated to each of the
	// two dueling policies. Default 4.
	LeaderSets int
	// PSELBits is the policy-selector counter width. Default 10.
	PSELBits int
}

func (c DIPConfig) withDefaults() DIPConfig {
	if c.Epsilon == 0 {
		c.Epsilon = 32
	}
	if c.LeaderSets == 0 {
		c.LeaderSets = 4
	}
	if c.PSELBits == 0 {
		c.PSELBits = 10
	}
	return c
}

// DIP set-duels LRU against BIP (bimodal insertion): a few leader sets
// always use LRU, a few always use BIP, and a saturating selector driven
// by leader-set misses decides the policy for all follower sets. BIP
// inserts at the LRU position except for 1-in-epsilon insertions, which
// defeats thrashing while retaining some adaptivity.
type DIP struct {
	noBypass
	cfg     DIPConfig
	sets    int
	rec     cache.Recency
	psel    int
	pselMax int
	tick    uint64
}

// NewDIP returns a DIP policy with default parameters.
func NewDIP() *DIP { return NewDIPConfig(DIPConfig{}) }

// NewDIPConfig returns a DIP policy with explicit parameters.
func NewDIPConfig(cfg DIPConfig) *DIP {
	cfg = cfg.withDefaults()
	return &DIP{cfg: cfg, pselMax: 1<<cfg.PSELBits - 1}
}

// Name implements cache.Policy.
func (p *DIP) Name() string { return "DIP" }

// Attach implements cache.Policy.
func (p *DIP) Attach(sets, ways int) {
	p.sets = sets
	p.rec.Attach(sets, ways)
	p.psel = p.pselMax / 2
	p.tick = 0
}

// setKind classifies a set: 0 = LRU leader, 1 = BIP leader, 2 = follower.
// Leader sets are spread across the index space.
func (p *DIP) setKind(set int) int {
	if p.cfg.LeaderSets <= 0 || p.sets < 2*p.cfg.LeaderSets {
		return 2
	}
	stride := p.sets / (2 * p.cfg.LeaderSets)
	if stride == 0 {
		return 2
	}
	if set%stride == 0 {
		if (set/stride)%2 == 0 {
			return 0
		}
		return 1
	}
	return 2
}

// useBIP reports whether insertions into this set follow BIP right now.
func (p *DIP) useBIP(set int) bool {
	switch p.setKind(set) {
	case 0:
		return false
	case 1:
		return true
	default:
		return p.psel > p.pselMax/2
	}
}

// OnHit implements cache.Policy.
func (p *DIP) OnHit(a cache.Access, way int) { p.rec.Touch(a.Set, way) }

// Victim implements cache.Policy: always the LRU block; the dueling
// affects insertion position, not victim choice. Leader-set misses train
// the selector.
func (p *DIP) Victim(a cache.Access) (int, bool) {
	switch p.setKind(a.Set) {
	case 0: // LRU leader missed: vote for BIP
		if p.psel < p.pselMax {
			p.psel++
		}
	case 1: // BIP leader missed: vote for LRU
		if p.psel > 0 {
			p.psel--
		}
	}
	return p.rec.LRU(a.Set), false
}

// OnInsert implements cache.Policy: LRU insertion places the block at
// MRU; BIP leaves it at the LRU position except 1-in-epsilon times.
func (p *DIP) OnInsert(a cache.Access, way int) {
	p.tick++
	if p.useBIP(a.Set) && p.tick%uint64(p.cfg.Epsilon) != 0 {
		p.rec.Demote(a.Set, way)
		return
	}
	p.rec.Touch(a.Set, way)
}

// OnEvict implements cache.Policy.
func (p *DIP) OnEvict(a cache.Access, way int, evicted uint64) {}

// Reset implements cache.Policy.
//
//ghrp:hotpath
func (p *DIP) Reset() {
	p.rec.Reset()
	p.psel = p.pselMax / 2
	p.tick = 0
}

// UsingBIP reports the follower sets' current policy, for tests.
func (p *DIP) UsingBIP() bool { return p.psel > p.pselMax/2 }
