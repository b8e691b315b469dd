package main

import (
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBench builds merlind and the benchmark into a temp dir.
func buildBench(t *testing.T) (bench, merlind string) {
	t.Helper()
	dir := t.TempDir()
	bench, merlind = filepath.Join(dir, "perfbench"), filepath.Join(dir, "merlind")
	for _, args := range [][]string{{"-o", bench, "."}, {"-o", merlind, "merlin/cmd/merlind"}} {
		cmd := exec.Command("go", append([]string{"build"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	return bench, merlind
}

// result is the benchmark's JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each declared metric is printed with its unit, that no op failed,
// and that no merlind process or data dir outlives a run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	bench, merlind := buildBench(t)
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	state := t.TempDir()
	for _, wl := range []string{"allpairs-cold", "zoo-churn", "merlind-hub"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(bench, "-merlind", merlind, "-state", state, "-spec", "../BENCHMARK.json",
					"--workload", wl, "--seed", "3", "--seconds", "1", "--trace", trace)
				var stderr strings.Builder
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run: %v\n%s%s", err, out, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				want := sp.EndToEnd
				if trace == "1" {
					want = sp.PerLayer
				}
				table := strings.Join(lines[:len(lines)-1], "\n")
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("JSON lacks %s in %s: %+v", m.Name, m.Unit, got)
					}
					row := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `$`)
					if trace == "0" && !row.MatchString(table) {
						t.Errorf("table does not print %s %s", m.Name, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("JSON has %d metrics, want %d", len(res.Metrics), len(want))
				}
				if !strings.Contains(table, "failed_frac") {
					t.Error("table does not print failed_frac")
				}
				if res.Failed != 0 || !res.Correct {
					t.Errorf("%d of %d ops failed:\n%s", res.Failed, res.Attempted, stderr.String())
				}
				assertNoLeftovers(t, state, merlind)
			})
		}
	}
	// A second traced run per in-process workload at the same seed: the
	// summary fails if a deterministic counter differs between the two.
	for _, wl := range []string{"allpairs-cold", "zoo-churn"} {
		cmd := exec.Command(bench, "-merlind", merlind, "-state", state, "-spec", "../BENCHMARK.json",
			"--workload", wl, "--seed", "3", "--seconds", "1", "--trace", "1")
		if out, err := cmd.Output(); err != nil {
			t.Fatalf("%s rerun: %v\n%s", wl, err, out)
		}
	}
	cmd := exec.Command(bench, "-state", state, "-spec", "../BENCHMARK.json", "-summarize")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("summary: %v\n%s", err, out)
	}
}

// TestSmokeInterrupted stops a merlind-hub run with SIGTERM mid-stream and
// checks that the daemon, its port and its data dir are gone.
func TestSmokeInterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs merlind")
	}
	bench, merlind := buildBench(t)
	state := t.TempDir()
	cmd := exec.Command(bench, "-merlind", merlind, "-state", state, "-spec", "../BENCHMARK.json",
		"--workload", "merlind-hub", "--seed", "3", "--seconds", "60", "--trace", "0")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == "" && time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		for _, p := range daemons(merlind) {
			if m := regexp.MustCompile(`-addr\x00([^\x00]+)`).FindStringSubmatch(p); m != nil {
				addr = m[1]
			}
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		<-done
		t.Fatal("merlind never started")
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("interrupted run exited 0")
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("benchmark ignored SIGTERM")
	}
	assertNoLeftovers(t, state, merlind)
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("port %s still accepts connections", addr)
	}
}

// daemons returns the NUL-separated command lines of live processes
// running the given merlind binary.
func daemons(merlind string) []string {
	var out []string
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	for _, d := range dirs {
		b, err := os.ReadFile(filepath.Join(d, "cmdline"))
		if err == nil && strings.HasPrefix(string(b), merlind+"\x00") {
			out = append(out, string(b))
		}
	}
	return out
}

func assertNoLeftovers(t *testing.T, state, merlind string) {
	t.Helper()
	if ps := daemons(merlind); len(ps) > 0 {
		t.Errorf("merlind still running: %q", ps)
	}
	if dirs, _ := filepath.Glob(filepath.Join(state, "hub-*")); len(dirs) > 0 {
		t.Errorf("data dirs left behind: %v", dirs)
	}
}
