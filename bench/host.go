package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the host guard: what the run executed on, and whether its
// timings can be trusted.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Load1      float64 `json:"load1"`
	Commit     string  `json:"commit"`
	// Degraded marks a host with fewer than two processors, or one that
	// was already more than half busy when the benchmark started; compare
	// then treats timings as advisory.
	Degraded bool `json:"degraded"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Load1:      -1,
		Commit:     "unknown", // the driver's checkout is not a git repository
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.Load1 = v
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.Degraded = h.NProc < 2 || h.Load1 > float64(h.NProc)/2
	return h
}

// clients caps a workload's client goroutines at the processor count.
func (h hostInfo) clients(want int) int { return max(1, min(want, h.NProc)) }
