package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// corruptShardPayload flips one byte inside shard i's leaf blocks within a
// saved container. Gob encodes byte slices as contiguous raw bytes, so the
// shard's blocks appear verbatim in the blob; flipping inside that run
// damages exactly one shard's payload (covered by its per-shard checksum,
// outside the global checksum).
func corruptShardPayload(tb testing.TB, blob []byte, ix *Index, shard int) []byte {
	tb.Helper()
	blocks := ix.Collection().tree(shard).Shape().LeafBlocks
	off := bytes.Index(blob, blocks)
	if off < 0 {
		tb.Fatalf("shard %d leaf blocks not found in container", shard)
	}
	out := append([]byte(nil), blob...)
	out[off+len(blocks)/2] ^= 0x20
	return out
}

// TestLoadQuarantineCorruptShard is the degraded-load contract: a
// container with one corrupt shard payload fails to load by default, but
// loads as a degraded collection under QuarantineCorruptShards — the corrupt
// shard permanently quarantined, the healthy shards answering partial
// queries, and Save/Insert/Reinstate refusing the hole.
func TestLoadQuarantineCorruptShard(t *testing.T) {
	rng := rand.New(rand.NewSource(821))
	data := mixedMatrix(rng, 600, 64)
	queries := mixedMatrix(rng, 5, 64)
	const shards, k = 4, 5
	orig, err := Build(data, Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(orig, &buf); err != nil {
		t.Fatal(err)
	}
	// The clean container loads normally.
	var st LoadStats
	if _, err := LoadWithStats(bytes.NewReader(buf.Bytes()), &st); err != nil {
		t.Fatal(err)
	}
	if st.QuarantinedShards != nil {
		t.Fatalf("clean load stats %+v", st)
	}

	const bad = 1
	corrupted := corruptShardPayload(t, buf.Bytes(), orig, bad)

	// Default: the load fails, attributing the corruption.
	if _, err := Load(bytes.NewReader(corrupted)); err == nil {
		t.Fatal("corrupt shard payload loaded without error")
	}

	// Degraded mode: the healthy shards load, the corrupt one is quarantined.
	st = LoadStats{}
	ix, err := LoadWithOptions(bytes.NewReader(corrupted), LoadOptions{QuarantineCorruptShards: true}, &st)
	if err != nil {
		t.Fatalf("degraded load: %v", err)
	}
	if len(st.QuarantinedShards) != 1 || st.QuarantinedShards[0] != bad {
		t.Fatalf("stats quarantined %v, want [%d]", st.QuarantinedShards, bad)
	}
	col := ix.Collection()
	if got := col.Quarantined(); len(got) != 1 || got[0] != bad {
		t.Fatalf("Quarantined() = %v", got)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("degraded collection invariants: %v", err)
	}

	// Reference: the clean container with the same shard manually
	// quarantined. Both see identical f32-rounded data, so the degraded
	// load's partial answers must match bit for bit.
	refIx, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := refIx.Collection().Quarantine(bad); err != nil {
		t.Fatal(err)
	}
	s := ix.NewSearcher()
	refs := refIx.NewSearcher()
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.Row(qi)
		// Fail-fast still fails.
		if _, err := s.Search(q, k); !errors.Is(err, ErrShardQuarantined) {
			t.Fatalf("q=%d: fail-fast on degraded load: %v", qi, err)
		}
		// AllowPartial answers from the healthy shards only; a load-time
		// quarantined shard has no tree, so its degradation is unbounded.
		res, err := s.SearchPlan(context.Background(), q, Plan{K: k, AllowPartial: true}, nil)
		if err != nil {
			t.Fatalf("q=%d: partial query on degraded load: %v", qi, err)
		}
		if len(res) == 0 {
			t.Fatalf("q=%d: degraded load answered nothing", qi)
		}
		for _, r := range res {
			if int(r.ID)%shards == bad {
				t.Fatalf("q=%d: result id %d from the quarantined shard", qi, r.ID)
			}
		}
		m := s.LastMeta()
		if m.ShardsFailed != 1 || m.ShardsSearched != shards-1 || !math.IsInf(m.EpsilonBound, 1) {
			t.Fatalf("q=%d: degraded-load meta %+v (want 1 failed, +Inf ε)", qi, m)
		}
		// The surviving shards answer exactly as the clean load does with the
		// same shard quarantined.
		want, err := refs.SearchPlan(context.Background(), q, Plan{K: k, AllowPartial: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(want) {
			t.Fatalf("q=%d: %d partial results, reference %d", qi, len(res), len(want))
		}
		for r := range res {
			if res[r] != want[r] {
				t.Fatalf("q=%d rank %d: degraded load %+v, reference %+v", qi, r, res[r], want[r])
			}
		}
	}

	// The degraded collection refuses to persist itself: a container written
	// without the quarantined shard would silently drop 1/S of the data.
	if err := Save(ix, &bytes.Buffer{}); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("Save of degraded collection: %v, want ErrShardQuarantined", err)
	}
	// Reinstate cannot resurrect a shard with no tree.
	if err := col.Reinstate(bad); err == nil {
		t.Fatal("Reinstate of a load-quarantined (treeless) shard succeeded")
	}
	// Inserts destined for the hole are refused; the mapping does not skip it.
	for tries := 0; tries < shards+1; tries++ {
		_, err := ix.Insert(data.Row(0))
		if err != nil {
			if !errors.Is(err, ErrShardQuarantined) {
				t.Fatalf("insert refusal: %v", err)
			}
			break
		}
		if tries == shards {
			t.Fatal("inserts never reached the quarantined shard")
		}
	}
}

// TestLoadAllShardsCorruptFails: a container whose every shard is corrupt fails
// to load even in degraded mode — there is nothing to answer from.
func TestLoadAllShardsCorruptFails(t *testing.T) {
	rng := rand.New(rand.NewSource(822))
	ix, err := Build(mixedMatrix(rng, 200, 32), Config{Method: MESSI, LeafCapacity: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	blob := corruptShardPayload(t, buf.Bytes(), ix, 0)
	blob = corruptShardPayload(t, blob, ix, 1)
	if _, err := LoadWithOptions(bytes.NewReader(blob), LoadOptions{QuarantineCorruptShards: true}, nil); err == nil {
		t.Fatal("all-corrupt container loaded in degraded mode")
	}
}

// TestLoadGlobalCorruptionStillFails: QuarantineCorruptShards only absorbs
// per-shard payload damage; corruption in the global region (header, SFA
// tables, series data) fails the load regardless.
func TestLoadGlobalCorruptionStillFails(t *testing.T) {
	rng := rand.New(rand.NewSource(823))
	ix, err := Build(mixedMatrix(rng, 200, 32), Config{Method: SOFA, LeafCapacity: 16, SampleRate: 0.3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// The series data region: locate a run of the f32-encoded data bytes.
	// Flipping there breaks the global checksum, not a shard checksum.
	sawFailure := false
	for _, off := range []int{64, 96, 128} {
		flipped := append([]byte(nil), blob...)
		flipped[off] ^= 0x08
		if _, err := LoadWithOptions(bytes.NewReader(flipped), LoadOptions{QuarantineCorruptShards: true}, nil); err != nil {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("early-container corruption never failed a degraded-mode load")
	}
}
