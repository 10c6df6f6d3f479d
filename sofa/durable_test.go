package sofa

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

// The public durability surface: Open/CreateFrom, recovery stats, sync
// policies, checkpointing, and the re-exported sentinels. The underlying
// WAL/recovery machinery is exercised in internal/core's durability suite;
// these tests pin the sofa-level contract.

func durableData(count int) *Matrix {
	return mixedMatrix(rand.New(rand.NewSource(88)), count, 32)
}

func durableOpts() []Option {
	return []Option{Shards(2), Workers(1), LeafSize(32), SampleRate(0.5)}
}

func TestOpenCreateAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store") // Open must create the directory
	data := durableData(120)
	base := data.Len()
	ix, err := Open(dir, CreateFrom(data, durableOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var inserted [][]float64
	for i := 0; i < 3; i++ {
		s := randQuery(rng, 32)
		id, err := ix.Insert(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := ID(base + i); id != want {
			t.Fatalf("insert %d assigned id %d, want %d", i, id, want)
		}
		inserted = append(inserted, s)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	var stats RecoveryStats
	re, err := Open(dir, WithRecoveryStats(&stats))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if stats.Replayed != 3 || stats.Skipped != 0 || stats.TailError != nil {
		t.Fatalf("recovery stats = %+v, want 3 replayed, clean tail", stats)
	}
	if stats.CheckpointLen != base {
		t.Fatalf("checkpoint len %d, want %d", stats.CheckpointLen, base)
	}
	if re.RecoveryStats() != stats {
		t.Fatalf("RecoveryStats method disagrees with WithRecoveryStats")
	}
	if re.Len() != base+3 {
		t.Fatalf("recovered %d series, want %d", re.Len(), base+3)
	}
	// Each replayed insert must be findable at distance ~0 by its own series.
	for i, s := range inserted {
		res, err := re.Search(context.Background(), Query{Series: s, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].ID != ID(base+i) || res[0].Dist > 1e-9 {
			t.Fatalf("insert %d: got id %d dist %g, want id %d dist ~0", i, res[0].ID, res[0].Dist, base+i)
		}
	}
	// Ids keep counting from the recovered length.
	id, err := re.Insert(randQuery(rng, 32))
	if err != nil {
		t.Fatal(err)
	}
	if id != ID(base+3) {
		t.Fatalf("post-recovery insert id %d, want %d", id, base+3)
	}
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "nothing-here"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("open of uninitialized dir: %v, want ErrNotExist", err)
	}
}

func TestOpenCreateFromIgnoredWhenExists(t *testing.T) {
	dir := t.TempDir()
	data := durableData(120)
	base := data.Len()
	ix, err := Open(dir, CreateFrom(data, durableOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Open with different CreateFrom data must recover the existing
	// index, not rebuild.
	re, err := Open(dir, CreateFrom(durableData(10), durableOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != base {
		t.Fatalf("reopen with CreateFrom rebuilt: %d series, want %d", re.Len(), base)
	}
}

func TestDurableInsertBadLength(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(dir, CreateFrom(durableData(60), durableOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Insert(make([]float64, 7)); !errors.Is(err, ErrBadSeriesLength) {
		t.Fatalf("short insert: %v, want ErrBadSeriesLength", err)
	}
}

func TestDurableSyncPoliciesAndCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  OpenOption
	}{
		{"none", WithSync(SyncNone)},
		{"interval", SyncEvery(time.Hour)}, // interval never elapses; explicit Sync is the barrier
		{"always", WithSync(SyncAlways)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			data := durableData(60)
			base := data.Len()
			ix, err := Open(dir, append([]OpenOption{CreateFrom(data, durableOpts()...)}, tc.opt)...)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 4; i++ {
				if _, err := ix.Insert(randQuery(rng, 32)); err != nil {
					t.Fatal(err)
				}
			}
			if err := ix.Sync(); err != nil {
				t.Fatal(err)
			}
			walBefore := ix.WALBytes()
			if err := ix.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if ix.WALBytes() >= walBefore {
				t.Fatalf("checkpoint did not shrink the WAL: %d -> %d bytes", walBefore, ix.WALBytes())
			}
			if _, err := ix.Insert(randQuery(rng, 32)); err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			var stats RecoveryStats
			re, err := Open(dir, WithRecoveryStats(&stats))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if stats.CheckpointLen != base+4 || stats.Replayed != 1 {
				t.Fatalf("recovery stats = %+v, want checkpoint %d + 1 replayed", stats, base+4)
			}
			if re.Len() != base+5 {
				t.Fatalf("recovered %d series, want %d", re.Len(), base+5)
			}
		})
	}
}

func TestOpenSentinelIdentity(t *testing.T) {
	// The re-exported sentinels must be the selfsame values recovery wraps,
	// so callers can errors.Is against the sofa package alone.
	dir := t.TempDir()
	data := durableData(60)
	ix, err := Open(dir, CreateFrom(data, durableOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3; i++ {
		if _, err := ix.Insert(randQuery(rng, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	wal := core.WALPath(dir)
	t.Run("truncated", func(t *testing.T) {
		info, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(wal, info.Size()-11); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, StrictRecovery()); !errors.Is(err, ErrRecoveryTruncated) {
			t.Fatalf("strict open of torn log: %v, want ErrRecoveryTruncated", err)
		}
		var stats RecoveryStats
		re, err := Open(dir, WithRecoveryStats(&stats)) // lenient default repairs
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if !errors.Is(stats.TailError, ErrRecoveryTruncated) || stats.Replayed != 2 {
			t.Fatalf("lenient stats = %+v, want truncated tail, 2 replayed", stats)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		b, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-20] ^= 0x10 // flip a payload bit in the (now last) record
		if err := os.WriteFile(wal, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, StrictRecovery()); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("strict open of corrupt log: %v, want ErrWALCorrupt", err)
		}
		var stats RecoveryStats
		re, err := Open(dir, WithRecoveryStats(&stats))
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if !errors.Is(stats.TailError, ErrWALCorrupt) || stats.Replayed != 1 {
			t.Fatalf("lenient stats = %+v, want corrupt tail, 1 replayed", stats)
		}
	})
	t.Run("other version", func(t *testing.T) {
		b, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		b[7] = 1 // "SOFAWAL\x01": an older build's log, not a damaged one
		if err := os.WriteFile(wal, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range [][]OpenOption{nil, {StrictRecovery()}} {
			if _, err := Open(dir, opts...); !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("open of a version-1 log: %v, want ErrUnsupportedVersion", err)
			}
		}
		if after, err := os.ReadFile(wal); err != nil || !bytes.Equal(after, b) {
			t.Fatalf("refused log was modified (read error %v)", err)
		}
	})
}
