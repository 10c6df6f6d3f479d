// Package faultinject is the deterministic fault-injection harness behind
// the chaos test suite: named hook sites threaded through the query and
// persistence paths that can be armed to panic or fail on a precise call
// (nth-call triggers) or at a seeded rate (probabilistic triggers).
//
// The package has two build personalities:
//
//   - Under the `faultinject` build tag, Hook consults a registry of armed
//     plans and fires the configured faults. This is the build the chaos CI
//     job and FuzzFaultSchedule run.
//   - Without the tag (every release build), Enabled is the constant false
//     and Hook is an empty inlinable stub, so the `if faultinject.Enabled`
//     guards at every call site compile to nothing and no hook machinery is
//     linked into release binaries (the chaos CI job verifies this with
//     `sofa-vet -release-scan`, which checks both nm symbols and surviving
//     site-name strings).
//
// Hook sites are a closed set: every call site must use one of the Site*
// constants below, and the retention/hooks audit fails when a call site uses
// a name outside the allowlist. Faults are injected only at these
// boundaries, never inside lock-holding critical sections, so panic
// recovery upstream can never strand a mutex.
package faultinject

// The named hook sites. Keep in sync with siteList (every call site is
// audited by the faultguard analyzer in internal/analysis).
const (
	// SiteShardSeed fires at shard-search entry: the seeding stage of one
	// shard's participation in a collection query.
	SiteShardSeed = "shard/seed"
	// SiteShardFinish fires before one shard's exact stage (traversal and
	// leaf refinement).
	SiteShardFinish = "shard/finish"
	// SiteKernel fires at kernel dispatch: immediately before the per-query
	// LBD table build and refinement engine run inside the tree.
	SiteKernel = "index/kernel"
	// SitePersistRead fires on every read the container loader issues
	// against the underlying storage.
	SitePersistRead = "persist/read"
	// SiteStreamSubmit fires in Stream.SubmitPlan before the query is
	// enqueued.
	SiteStreamSubmit = "stream/submit"
	// SiteStreamWorker fires in the stream worker loop before each query
	// executes.
	SiteStreamWorker = "stream/worker"
	// SiteBatchWorker fires in Collection.SearchBatchPlan's per-query step
	// before each query executes — outside any shard's containment, under
	// the batch's own recover.
	SiteBatchWorker = "batch/worker"
	// SiteWALAppend fires in WAL.Append before the record bytes reach the
	// file. A fatal firing additionally tears the record (half its bytes are
	// written), modelling a crash mid-append.
	SiteWALAppend = "wal/append"
	// SiteWALSync fires in WAL.Sync before the fsync.
	SiteWALSync = "wal/sync"
	// SiteCheckpointRename fires in the atomic container save between the
	// temp file's fsync and the rename that publishes it — the
	// crash-before-commit point of a checkpoint.
	SiteCheckpointRename = "checkpoint/rename"
	// SitePersistWrite fires on every write the container saver issues
	// against the temp file. A fatal firing tears the chunk (half its bytes
	// are written), modelling a crash mid-save.
	SitePersistWrite = "persist/write"
	// SiteTombstone fires in Delete and Upsert after the id resolved but
	// before the tombstone bit is set — the point where a mutation can fail
	// without leaving any partial state.
	SiteTombstone = "mutate/tombstone"
	// SiteCompactSwap fires in shard compaction immediately before the
	// rebuilt shard is swapped in — a failure here discards the rebuild and
	// leaves the old shard state fully intact.
	SiteCompactSwap = "compact/swap"
)

// siteList enumerates every valid hook site; Sites returns a copy for the
// audit and the fuzz harness. A function (rather than an exported var)
// keeps release binaries free of faultinject data symbols.
func siteList() [13]string {
	return [13]string{
		SiteShardSeed,
		SiteShardFinish,
		SiteKernel,
		SitePersistRead,
		SiteStreamSubmit,
		SiteStreamWorker,
		SiteBatchWorker,
		SiteWALAppend,
		SiteWALSync,
		SiteCheckpointRename,
		SitePersistWrite,
		SiteTombstone,
		SiteCompactSwap,
	}
}

// Sites returns the allowlisted hook site names, in stable order.
func Sites() []string {
	l := siteList()
	return l[:]
}
