package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Stream lifecycle under adversarial timing (run with -race in CI): Close
// racing Submit, and concurrent double Close.

// TestStreamCloseSubmitRace races many submitters against Close: every
// Submit must either enqueue (and be answered exactly once) or fail with
// ErrStreamClosed — no lost queries, no double answers, no panics — and
// concurrent Close calls are idempotent.
func TestStreamCloseSubmitRace(t *testing.T) {
	rng := rand.New(rand.NewSource(861))
	data := mixedMatrix(rng, 300, 32)
	ix, err := Build(data, Config{Method: MESSI, LeafCapacity: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		var answered atomic.Int64
		var mu sync.Mutex
		seen := map[uint64]bool{}
		st, err := ix.NewStream(3, 2, func(qid uint64, res []Result, err error) {
			if err != nil {
				t.Errorf("round %d: query %d answered with %v", round, qid, err)
				return
			}
			mu.Lock()
			if seen[qid] {
				t.Errorf("round %d: query %d answered twice", round, qid)
			}
			seen[qid] = true
			mu.Unlock()
			answered.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					_, err := st.Submit(data.Row((g*20 + i) % data.Len()))
					switch {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, ErrStreamClosed):
						return // closed under us: every later submit fails too
					default:
						t.Errorf("round %d: submit error %v", round, err)
						return
					}
				}
			}(g)
		}
		// Two goroutines race Close against the submitters and each other.
		var cwg sync.WaitGroup
		for c := 0; c < 2; c++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				time.Sleep(time.Duration(round) * 100 * time.Microsecond)
				st.Close()
			}()
		}
		wg.Wait()
		cwg.Wait()
		if _, err := st.Submit(data.Row(0)); !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("round %d: post-close submit err = %v, want ErrStreamClosed", round, err)
		}
		if got, want := answered.Load(), accepted.Load(); got != want {
			t.Fatalf("round %d: %d accepted submits, %d answers", round, want, got)
		}
	}
}
