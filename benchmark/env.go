package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/simd"
)

// fingerprint identifies the machine and build a report was taken on;
// -compare refuses reports whose fingerprints differ in anything but Commit.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	SIMD       string `json:"simd_impl"`
	BlockImpl  string `json:"simd_block_impl"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether two reports may be compared.
func (f fingerprint) sameMachine(g fingerprint) bool {
	f.Commit, g.Commit = "", ""
	return f == g
}

// nproc is the parallelism every program-side worker count is capped at.
// GOMAXPROCS is set from it once, at start-up.
var nproc = func() int {
	n := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(n)
	return n
}()

func machineFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SIMD:       simd.Impl(),
		BlockImpl:  simd.BlockImpl(),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
	}
}

func cpuModel() string {
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		return v
	}
	return runtime.GOARCH
}

// buildCommit is the VCS revision the go tool stamped into the binary, when
// the checkout is a repository; the driver's checkouts are not.
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// procField returns the value of the first "key : value" line of a /proc file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// checkMemory refuses a workload whose resident series (the data, plus the
// per-shard copy a sharded build makes) exceed half of MemAvailable. A
// platform without /proc/meminfo is not refused.
func checkMemory(w workload) error {
	f := strings.Fields(procField("/proc/meminfo", "MemAvailable"))
	if len(f) == 0 {
		return nil
	}
	kb, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return nil
	}
	spec, err := specFor(w)
	if err != nil {
		return err
	}
	need := int64(w.N) * int64(spec.Length) * 8
	if w.Shards > 1 {
		need *= 2
	}
	if avail := kb * 1024; need > avail/2 {
		return fmt.Errorf("workload %s needs %d MiB of series, more than half of MemAvailable (%d MiB); lower -scale",
			w.Name, need>>20, avail>>20)
	}
	return nil
}
