//go:build faultinject

package faultinject

import (
	"errors"
	"sync"
	"testing"
)

func TestNthCallTrigger(t *testing.T) {
	defer Reset()
	Arm(SiteShardSeed, Trigger{Mode: ModeError, OnCall: 3})
	for i := 1; i <= 5; i++ {
		err := Hook(SiteShardSeed)
		if (i == 3) != (err != nil) {
			t.Fatalf("call %d: err = %v", i, err)
		}
		if i == 3 && !IsInjected(err) {
			t.Fatalf("call 3: not recognized as injected: %v", err)
		}
	}
	if got := Calls(SiteShardSeed); got != 5 {
		t.Fatalf("Calls = %d, want 5", got)
	}
	if got := Fired(SiteShardSeed); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

func TestEveryNTrigger(t *testing.T) {
	defer Reset()
	Arm(SiteKernel, Trigger{Mode: ModeTransient, EveryN: 2, Count: 2})
	var fired int
	for i := 0; i < 10; i++ {
		if err := Hook(SiteKernel); err != nil {
			fired++
			if !IsTransient(err) {
				t.Fatalf("transient trigger produced non-transient error %v", err)
			}
		}
	}
	if fired != 2 {
		t.Fatalf("Count=2 bound: fired %d times", fired)
	}
}

func TestPanicTrigger(t *testing.T) {
	defer Reset()
	Arm(SiteQueryWorker, Trigger{Mode: ModePanic, OnCall: 1})
	defer func() {
		r := recover()
		p, ok := r.(Panic)
		if !ok || p.Site != SiteQueryWorker {
			t.Fatalf("recovered %v, want faultinject.Panic at %s", r, SiteQueryWorker)
		}
	}()
	Hook(SiteQueryWorker)
	t.Fatal("hook did not panic")
}

// TestProbDeterminism pins that probabilistic triggers are a pure function
// of the seed: same seed, same firing pattern; different seed, (almost
// surely) different pattern.
func TestProbDeterminism(t *testing.T) {
	defer Reset()
	pattern := func(seed uint64) []bool {
		Arm(SitePersistRead, Trigger{Mode: ModeError, Prob: 0.3, Seed: seed})
		out := make([]bool, 64)
		for i := range out {
			out[i] = Hook(SitePersistRead) != nil
		}
		return out
	}
	a, b, c := pattern(7), pattern(7), pattern(8)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different firing patterns")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical 64-call firing patterns")
	}
	var fired int
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.3 fired %d/64 times; trigger not probabilistic", fired)
	}
}

func TestArmRejectsUnknownSite(t *testing.T) {
	defer Reset()
	defer func() {
		if recover() == nil {
			t.Fatal("Arm accepted an unknown site")
		}
	}()
	Arm("no/such/site", Trigger{Mode: ModeError, OnCall: 1})
}

// TestConcurrentNthCall pins that nth-call triggers fire exactly once under
// concurrency (the call counter hands each call a unique number).
func TestConcurrentNthCall(t *testing.T) {
	defer Reset()
	Arm(SiteQueryWorker, Trigger{Mode: ModeError, OnCall: 50})
	var wg sync.WaitGroup
	var fired sync.Map
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := Hook(SiteQueryWorker); err != nil {
					fired.Store(i, err)
				}
			}
		}()
	}
	wg.Wait()
	var n int
	fired.Range(func(any, any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("OnCall trigger fired %d times under concurrency, want 1", n)
	}
}

func TestDisarmAndReset(t *testing.T) {
	Arm(SiteShardFinish, Trigger{Mode: ModeError, EveryN: 1})
	if Hook(SiteShardFinish) == nil {
		t.Fatal("armed site did not fire")
	}
	Disarm(SiteShardFinish)
	if err := Hook(SiteShardFinish); err != nil {
		t.Fatalf("disarmed site fired: %v", err)
	}
	Arm(SiteStreamSubmit, Trigger{Mode: ModeError, EveryN: 1})
	Reset()
	if err := Hook(SiteStreamSubmit); err != nil {
		t.Fatalf("reset site fired: %v", err)
	}
	if IsInjected(errors.New("x")) || IsTransient(errors.New("x")) {
		t.Fatal("foreign error classified as injected")
	}
}
