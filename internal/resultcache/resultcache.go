// Package resultcache is a content-addressed on-disk cache of
// simulation results. The experiment harness evaluates a grid of
// (workload, policy, configuration) cells, and many entry points —
// the Fig. 7 configuration sweep, the ablations, repeated CLI runs —
// re-simulate cells an earlier run already computed (an ablation's
// "paper default" variant is bit-identical to the baseline run, and the
// sweep's 64KB/8-way column is the main suite's configuration). Because
// every simulation is deterministic in (workload profile, execution
// seed, instruction target, front-end configuration, policy), a result
// can be keyed by a hash of exactly those inputs and replayed from disk
// instead of re-simulated.
//
// The cache can also store per-workload Counts, the totals of a
// counting pass over a workload's stream (frontend.CountProgram). The
// suite runner no longer counts, since its one pass derives the warm-up
// window, so only the benchmark's probe (suitebench) uses them now.
//
// Layout: each entry is one JSON file under dir/<hh>/<hash>.json, where
// hash is the SHA-256 of the cell's canonical JSON encoding and hh its
// first two hex digits (a shard level that keeps directories small on
// 662-workload grids). Writes go through a temp file and rename, so
// concurrent readers never observe a partial entry. Unreadable or
// mismatched entries are treated as misses, never surfaced as errors;
// only Put reports I/O failures.
//
// Failure semantics: an entry that exists but does not decode (torn
// write survivor, disk corruption, tampering) or decodes to a foreign
// key is quarantined — renamed to <hash>.json.corrupt — so it cannot
// fail every future run, and the quarantine is counted (Quarantined).
// A stale-version entry is a plain miss that the next Put overwrites.
//
// FormatVersion is part of every key: bump it whenever the simulator's
// observable results change (a new Result field, a semantic fix), which
// orphans stale entries instead of replaying them.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/workload"
)

// FormatVersion is the cache schema version, hashed into every key.
// Bump it when simulation semantics or the Result layout change.
//
// Version history:
//
//	1 — per-policy Result entries only.
//	2 — added policy-independent Counts entries (count memoization).
const FormatVersion = 2

// Key addresses one simulation cell: a hex SHA-256 over the cell's
// canonical JSON encoding.
type Key string

// cell is everything that determines one simulation result. The record
// stream is a pure function of (Profile, ExecSeed, Target) and the
// replay a pure function of the stream, Config and Policy, so hashing
// these fields (plus the schema version) is sound.
type cell struct {
	Version  int
	Profile  workload.Profile
	Target   uint64 // scaled instruction budget (Options.Scale applied)
	ExecSeed uint64
	Policy   string
	Config   frontend.Config
}

// KeyFor computes the cache key for one (workload, policy) cell. Target
// is the scaled instruction budget, not the raw scale factor, so two
// runs whose scales yield the same budget share entries.
func KeyFor(spec workload.Spec, cfg frontend.Config, kind frontend.PolicyKind, execSeed, target uint64) (Key, error) {
	return keyOf(cell{
		Version:  FormatVersion,
		Profile:  spec.Profile,
		Target:   target,
		ExecSeed: execSeed,
		Policy:   kind.String(),
		Config:   cfg,
	})
}

// Counts memoizes one workload's counting pass (frontend.CountProgram's
// outputs). Only the benchmark's probe uses it now.
type Counts struct {
	Instructions uint64
	Records      uint64
}

// countCell is everything that determines a workload's Counts. Counting
// replays the record stream through the fetch reconstructor only, so of
// the front-end configuration just the instruction size and I-cache
// block geometry matter — a count entry is shared by every policy and
// every cache/BTB sweep variant.
type countCell struct {
	Version    int
	Kind       string // "count": keeps the hash input disjoint from cell
	Profile    workload.Profile
	Target     uint64
	ExecSeed   uint64
	InstrBytes uint64
	BlockBytes int
}

// CountKeyFor computes the cache key for one workload's counting pass
// under the given configuration's fetch geometry. Only the benchmark's
// probe uses it now.
func CountKeyFor(spec workload.Spec, cfg frontend.Config, execSeed, target uint64) (Key, error) {
	return keyOf(countCell{
		Version:    FormatVersion,
		Kind:       "count",
		Profile:    spec.Profile,
		Target:     target,
		ExecSeed:   execSeed,
		InstrBytes: cfg.InstrBytes,
		BlockBytes: cfg.ICache.BlockBytes,
	})
}

// KeyOf hashes an arbitrary canonically-JSON-encodable value into a
// Key: the SHA-256 of its JSON encoding. It is the generic
// content-addressing primitive behind KeyFor/CountKeyFor, exported for
// layers that need the same identity scheme over their own cell types —
// the serving daemon keys submitted runs with it so identical
// submissions deduplicate to one execution. Callers own versioning:
// include a schema-version field in v, as cell and countCell do.
func KeyOf(v any) (Key, error) { return keyOf(v) }

func keyOf(v any) (Key, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("resultcache: encoding key: %w", err)
	}
	sum := sha256.Sum256(blob)
	return Key(hex.EncodeToString(sum[:])), nil
}

// envelope is the on-disk record: the payload plus enough metadata to
// reject stale or foreign files. The payload field keeps the JSON name
// "Result" for both entry kinds; the FormatVersion bump that introduced
// count entries orphaned every file written under the old layout.
type envelope[T any] struct {
	Version int
	Key     Key
	Result  T
}

// TestHooks intercept cache I/O for fault-injection tests; the zero
// value disables every hook. Hooks must be installed (SetTestHooks)
// before the cache is shared across goroutines. Count entries pass
// through the same hooks as result entries.
type TestHooks struct {
	// BeforeGet runs before an entry is read; a non-nil error forces a
	// miss (a transient read failure degrades to re-simulation).
	BeforeGet func(path string) error
	// BeforePut runs before the entry is written; a non-nil error
	// aborts Put with that error and must leave no temp file behind.
	BeforePut func(path string) error
	// AfterPut runs after the entry is renamed into place and may
	// damage it, simulating on-disk corruption.
	AfterPut func(path string)
}

// Cache is an on-disk result cache rooted at one directory. It is safe
// for concurrent use by multiple goroutines and multiple processes:
// entries are immutable once written and writes are atomic renames.
type Cache struct {
	dir         string
	quarantined atomic.Int64
	hooks       TestHooks
}

// Open creates (if needed) and returns the cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Quarantined returns how many corrupt entries this Cache has moved
// aside since it was opened. The counter is monotonic; callers tracking
// one run take a before/after delta.
func (c *Cache) Quarantined() int64 { return c.quarantined.Load() }

// SetTestHooks installs fault-injection hooks. Test-only; must be
// called before the cache is used concurrently.
func (c *Cache) SetTestHooks(h TestHooks) { c.hooks = h }

// path shards entries by the key's first two hex digits.
func (c *Cache) path(key Key) string {
	return filepath.Join(c.dir, string(key[:2]), string(key)+".json")
}

// Get returns the cached result for key. A missing, unreadable, stale
// or mismatched entry is a miss, never an error: the caller re-simulates
// and Put overwrites the bad entry. An entry that exists but does not
// decode — or decodes to a foreign key — is quarantined (renamed to
// <hash>.json.corrupt) so one corrupt file cannot fail every future
// run; a stale-version entry is left for Put to overwrite.
func (c *Cache) Get(key Key) (frontend.Result, bool) {
	return get[frontend.Result](c, key)
}

// GetCount returns the memoized counting pass for key (from
// CountKeyFor), with Get's miss/quarantine semantics. Only the
// benchmark's probe uses it now.
func (c *Cache) GetCount(key Key) (Counts, bool) {
	return get[Counts](c, key)
}

func get[T any](c *Cache, key Key) (T, bool) {
	var zero T
	if len(key) < 2 {
		return zero, false
	}
	path := c.path(key)
	if h := c.hooks.BeforeGet; h != nil {
		if err := h(path); err != nil {
			return zero, false
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return zero, false
	}
	var e envelope[T]
	if err := json.Unmarshal(blob, &e); err != nil || (e.Version == FormatVersion && e.Key != key) {
		c.quarantine(path)
		return zero, false
	}
	if e.Version != FormatVersion {
		return zero, false
	}
	return e.Result, true
}

// quarantine moves a corrupt entry to <path>.corrupt (overwriting any
// previous quarantine of the same entry) and counts it. Quarantined
// files carry no .json extension, so Len skips them; a failed rename
// leaves the entry in place for the next Put to overwrite.
func (c *Cache) quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err == nil {
		c.quarantined.Add(1)
	}
}

// Put stores one result under key, atomically: the entry is written to
// a temp file in the destination directory and renamed into place, so a
// concurrent Get sees either nothing or the complete entry. Every error
// path — including a panic unwinding through Put — removes the temp
// file, so a failed write never strands droppings in the cache.
func (c *Cache) Put(key Key, res frontend.Result) error {
	return put(c, key, res)
}

// PutCount stores one workload's counting pass under key (from
// CountKeyFor), with Put's atomicity guarantees. Only the benchmark's
// probe uses it now.
func (c *Cache) PutCount(key Key, counts Counts) error {
	return put(c, key, counts)
}

func put[T any](c *Cache, key Key, val T) error {
	if len(key) < 2 {
		return fmt.Errorf("resultcache: invalid key %q", key)
	}
	dst := c.path(key)
	if h := c.hooks.BeforePut; h != nil {
		if err := h(dst); err != nil {
			return fmt.Errorf("resultcache: %w", err)
		}
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	blob, err := json.MarshalIndent(envelope[T]{Version: FormatVersion, Key: key, Result: val}, "", "\t")
	if err != nil {
		return fmt.Errorf("resultcache: encoding entry: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+string(key[:8])+".tmp*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	// tmpName is cleared once the rename succeeds; until then the defer
	// owns cleanup on every exit, normal or panicking.
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			os.Remove(tmpName)
		}
	}()
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmpName = ""
	if h := c.hooks.AfterPut; h != nil {
		h(dst)
	}
	return nil
}

// Len walks the cache and counts stored entries of both kinds (a
// maintenance helper for tests and CLI reporting, not a hot path).
func (c *Cache) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("resultcache: %w", err)
	}
	return n, nil
}
