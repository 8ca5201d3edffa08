package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// machine identifies where and on what a results file was measured.
// Two files compare only when everything but GitSHA agrees.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GitSHA     string `json:"git_sha"`
}

func thisMachine() machine {
	m := machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), GOGC: os.Getenv("GOGC"), GitSHA: "unknown"}
	if m.GOGC == "" {
		m.GOGC = "100"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		_ = f.Close() // read only
	}
	// Output waits for git to end; outside a repository it fails and
	// the SHA stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
	}
	return m
}

// resultsFile is what -results names: every run appended to it was
// measured on the same machine.
type resultsFile struct {
	Machine machine   `json:"machine"`
	Runs    []*result `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResults adds runs to the results file, creating it, so that
// repeated invocations build up the samples -compare needs.
func appendResults(path string, m machine, runs []*result) error {
	rf := &resultsFile{Machine: m}
	if old, err := readResults(path); err == nil {
		if old.Machine != rf.Machine {
			return fmt.Errorf("%s was measured on another machine or commit (%+v, now %+v): name another -results file", path, old.Machine, rf.Machine)
		}
		rf.Runs = old.Runs
	} else if !os.IsNotExist(err) {
		return err
	}
	rf.Runs = append(rf.Runs, runs...)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// contractLine is the last line of standard output: the one JSON
// object the driver reads. With several workloads in one run the
// metric names are prefixed with the workload's.
func contractLine(runs []*result) (string, error) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(runs) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = m
		}
	}
	data, err := json.Marshal(out)
	return string(data), err
}
