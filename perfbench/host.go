package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostInfo records where and on what build a result was measured.
type hostInfo struct {
	NProc      int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Commit     string   `json:"commit"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Clients    int      `json:"clients"`
	ServerArgs []string `json:"server_flags"`
}

// printHost prints the host and build line that accompanies every
// result.
func printHost(cfg config) {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Clients:    clients,
		ServerArgs: serverArgs,
	}
	b, _ := json.Marshal(h) // plain strings and ints cannot fail to marshal
	fmt.Printf("host %s\n", b)
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git commit of the checkout, or "unknown" when the
// checkout is not a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
