package pipeline

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Stamp records where and on what a results file was measured.
type Stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Time       string `json:"time"`
}

// MachineStamp describes this machine and checkout. GOMAXPROCS is the
// value every run pins, not the process default.
func MachineStamp(seed int64) Stamp {
	return Stamp{
		GoVersion: runtime.Version(), GOMAXPROCS: ranks, NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: commit(), Seed: seed,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's HEAD, read from .git in the working
// directory or its parent (the benchmark runs from the repository root
// or from bench/), or "unknown": the benchmark's driver runs it from an
// exported tree, and nothing outside the checkout is consulted.
func commit() string {
	for _, root := range []string{".", ".."} {
		git := filepath.Join(root, ".git")
		head, err := os.ReadFile(filepath.Join(git, "HEAD"))
		if err != nil {
			continue
		}
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return short(ref)
		}
		if sha, err := os.ReadFile(filepath.Join(git, ref)); err == nil {
			return short(strings.TrimSpace(string(sha)))
		}
		packed, _ := os.ReadFile(filepath.Join(git, "packed-refs"))
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return short(sha)
			}
		}
	}
	return "unknown"
}

func short(sha string) string { return sha[:min(len(sha), 12)] }

// ResultsFile is what one invocation of pumi-pipeline writes and what
// benchcmp reads.
type ResultsFile struct {
	Stamp     Stamp             `json:"stamp"`
	Workloads []*WorkloadResult `json:"workloads"`
}

// Write stores the file as indented JSON.
func (f *ResultsFile) Write(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadResults loads a results file.
func ReadResults(path string) (*ResultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, err
	}
	return &f, nil
}
