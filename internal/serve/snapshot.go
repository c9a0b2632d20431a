package serve

import (
	"fmt"
	"sync/atomic"

	"quickdrop/internal/telemetry"
	"quickdrop/internal/tensor"
)

// Snapshot is one immutable published model version. Readers acquire a
// snapshot from the store, use its parameter tensors (read-only — the
// tensors are never written again after publish), and release it; the
// last release of a superseded version reclaims it.
type Snapshot struct {
	version uint64
	stamp   int64 // telemetry-clock nanos at publish
	params  []*tensor.Tensor
	// refs counts the store's own reference (dropped when a newer
	// version supersedes this one) plus one per outstanding reader.
	// A snapshot whose count reaches zero is dead and never revived.
	refs atomic.Int64
	st   *SnapshotStore
}

// Version returns the snapshot's monotonically increasing version.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Stamp returns the publish time in telemetry-clock nanoseconds.
func (sn *Snapshot) Stamp() int64 { return sn.stamp }

// Params returns the immutable parameter tensors. Callers must hold
// the acquisition (not yet have called Release) and must not mutate.
func (sn *Snapshot) Params() []*tensor.Tensor { return sn.params }

// tryRef takes a reference unless the snapshot is already dead.
func (sn *Snapshot) tryRef() bool {
	for {
		r := sn.refs.Load()
		if r <= 0 {
			return false
		}
		if sn.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops one reference. When the last reference of a superseded
// version drops, the version is reclaimed: its parameter memory is
// released and the store's live count decremented. Nil-safe, so
// readers can defer Release on a possibly-nil acquisition.
//
// An over-release panics before touching the count: a blind decrement
// would let the refcount go negative, after which a concurrent tryRef
// CAS could resurrect a reclaimed snapshot. The CAS loop keeps the
// count truthful even when the extra Release races correct ones.
func (sn *Snapshot) Release() {
	if sn == nil {
		return
	}
	for {
		r := sn.refs.Load()
		if r <= 0 {
			panic(fmt.Sprintf("serve: Snapshot version %d over-released (refcount %d); every Acquire must pair with exactly one Release", sn.version, r))
		}
		if !sn.refs.CompareAndSwap(r, r-1) {
			continue
		}
		if r == 1 {
			// No reader holds the snapshot and the store has moved on:
			// no path can reach the params again (tryRef refuses refs
			// <= 0), so dropping the slice frees the version's memory
			// now instead of when the last *Snapshot pointer is
			// collected.
			sn.params = nil
			sn.st.live.Add(-1)
		}
		return
	}
}

// SnapshotStore is a copy-on-write store of versioned model
// parameters. One writer publishes immutable versions; any number of
// readers acquire the current version without ever blocking on the
// writer (or each other): publish is an atomic pointer swap, acquire
// is a load plus a refcount increment. Old versions live until their
// last reader releases them, so an in-flight inference keeps its model
// while unlearning publishes the next one.
type SnapshotStore struct {
	cur     atomic.Pointer[Snapshot]
	version atomic.Uint64
	live    atomic.Int64
}

// NewSnapshotStore returns an empty store; Acquire returns nil until
// the first Publish.
func NewSnapshotStore() *SnapshotStore { return &SnapshotStore{} }

// Publish installs params as the next model version and returns its
// version number. The store takes ownership of params — the caller
// must pass a deep copy (e.g. Model.CloneParams()) and never write to
// it afterwards. The superseded version is reclaimed once its last
// reader releases it.
func (st *SnapshotStore) Publish(params []*tensor.Tensor) uint64 {
	sn := &Snapshot{
		version: st.version.Add(1),
		stamp:   telemetry.Now(),
		params:  params,
		st:      st,
	}
	sn.refs.Store(1) // the store's own reference
	st.live.Add(1)
	if old := st.cur.Swap(sn); old != nil {
		old.Release()
	}
	return sn.version
}

// Acquire returns the current version with a reference held, or nil
// if nothing has been published. It never blocks: a concurrent
// Publish at worst costs one retry when the loaded version died
// between the load and the refcount increment.
func (st *SnapshotStore) Acquire() *Snapshot {
	for {
		sn := st.cur.Load()
		if sn == nil {
			return nil
		}
		if sn.tryRef() {
			return sn
		}
	}
}

// Version returns the latest published version (0 before the first).
func (st *SnapshotStore) Version() uint64 { return st.version.Load() }

// Live returns how many published versions are not yet reclaimed: the
// current one plus any superseded versions still held by readers.
func (st *SnapshotStore) Live() int { return int(st.live.Load()) }
