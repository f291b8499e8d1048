// Command perfbench is the repository's benchmark: three workloads that
// stress different layers of the SCAR scheduler and its daemon, the
// end-to-end metrics a user of each sees, and a separate traced run that
// times every layer from outside through its public functions.
//
//	go build -o perfbench . && ./perfbench --workload search-4x4 --seed 1 --seconds 20 --trace 0
//
// It runs from the repository root (or -root). The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}; the
// lines before it carry host facts and, for a traced run, the per-layer
// table with the end-to-end metric each layer metric should move. Any
// failed correctness check prints correct=false and exits 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart approximates process start for setup_s: package
// initialization runs before main, so it is the earliest point Go code
// can observe.
var processStart = time.Now()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's inputs and accumulates its outcome. The
// workload functions fill metrics; checks append problems, which make the
// run incorrect.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	root     string

	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	notes     []string // human-readable lines printed before the result
	rss       *rssSampler
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed or incorrect operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a failed check that is not tied to one operation, such
// as a determinism or accounting check.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEnd names every end-to-end metric with its unit; each workload
// reports all of them.
var endToEnd = map[string]string{
	"setup_s":             "s",
	"search_s":            "s",
	"search_geomean_ms":   "ms",
	"sched_score_geomean": "score",
	"serve_p50_ms":        "ms",
	"serve_p99_ms":        "ms",
	"serve_max_rps":       "1/s",
	"miss_p50_ms":         "ms",
	"success_rate":        "fraction",
	"rss_mb":              "MB",
}

// workloads maps each name to its untimed-metrics run and its traced run.
var workloads = map[string]struct {
	measure func(*run) error
	trace   func(*run) error
}{
	"search-4x4":     {measureSearch4x4, traceSearch4x4},
	"search-6x6-evo": {measureSearch6x6, traceSearch6x6},
	"serve-mix":      {measureServeMix, traceServeMix},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	wl := flag.String("workload", "", "workload: search-4x4, search-6x6-evo or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed: drives the search seed, arrivals, the mix draw and miss names")
	seconds := flag.Int("seconds", 20, "measurement length in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	root := flag.String("root", ".", "repository root (holds go.mod and internal/)")
	flag.Parse()

	w, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "internal", "config", "testdata", "workload.json")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s is not the repository root: %v\n", *root, err)
		return 2
	}
	// GOMAXPROCS above the CPU count measures scheduler thrash, not the
	// program; it is clamped, never raised.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	r := &run{workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second, root: *root, metrics: map[string]metric{}, rss: startRSSSampler()}
	fn := w.measure
	if *traced == 1 {
		fn = w.trace
	}
	err := fn(r)
	r.rss.median() // stops the sampler
	if err == nil && *traced == 0 {
		for name, unit := range endToEnd {
			if m, ok := r.metrics[name]; !ok || m.Unit != unit {
				err = fmt.Errorf("end-to-end metric %s missing or not in %s", name, unit)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	// Host facts are gathered after the run, so reading them does not
	// count in setup_s.
	fmt.Println("host", hostFacts(r))
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was measured")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// hostFacts renders the facts every run records next to its numbers.
func hostFacts(r *run) string {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(r.root),
		"source":     sourceDigest(r.root),
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
	}
	b, _ := json.Marshal(facts) // a map of plain values always marshals
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// run in an exported tree without .git still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// commit reads the checked-out commit from .git without running git. A
// checkout without .git (an exported tree) reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, name, ok := strings.Cut(line, " "); ok && name == ref {
				return h
			}
		}
	}
	return "unknown"
}
