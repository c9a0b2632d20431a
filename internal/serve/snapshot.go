package serve

import (
	"sync/atomic"

	"quickdrop/internal/telemetry"
	"quickdrop/internal/tensor"
)

// Snapshot is one immutable published model version: its parameter
// tensors are never written after publish. A superseded version stays
// valid while a reader holds it; the garbage collector reclaims it after.
type Snapshot struct {
	version uint64
	stamp   int64 // telemetry-clock nanos at publish
	params  []*tensor.Tensor
}

// Version returns the snapshot's monotonically increasing version.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Stamp returns the publish time in telemetry-clock nanoseconds.
func (sn *Snapshot) Stamp() int64 { return sn.stamp }

// Params returns the parameter tensors, which callers must not mutate.
func (sn *Snapshot) Params() []*tensor.Tensor { return sn.params }

// Release does nothing. It is kept only because the benchmark module's
// serve.acquire_release_ns probe (bench/probes.go) calls it on every
// acquired snapshot; no code in this module calls it.
func (sn *Snapshot) Release() {}

// SnapshotStore is a copy-on-write store of versioned model
// parameters. One writer publishes immutable versions with an atomic
// pointer store; any number of readers load the current one without
// ever blocking, and keep it while unlearning publishes the next.
type SnapshotStore struct {
	cur     atomic.Pointer[Snapshot]
	version atomic.Uint64
}

// NewSnapshotStore returns an empty store; Acquire returns nil until
// the first Publish.
func NewSnapshotStore() *SnapshotStore { return &SnapshotStore{} }

// Publish installs params as the next model version and returns its
// version number. The store takes ownership of params — the caller
// must pass a deep copy (e.g. Model.CloneParams()) and never write to
// it afterwards.
func (st *SnapshotStore) Publish(params []*tensor.Tensor) uint64 {
	sn := &Snapshot{
		version: st.version.Add(1),
		stamp:   telemetry.Now(),
		params:  params,
	}
	st.cur.Store(sn)
	return sn.version
}

// Acquire returns the current version, or nil before the first Publish.
func (st *SnapshotStore) Acquire() *Snapshot { return st.cur.Load() }

// Version returns the latest published version (0 before the first).
func (st *SnapshotStore) Version() uint64 { return st.version.Load() }
