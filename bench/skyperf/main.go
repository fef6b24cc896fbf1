// Command skyperf is the repository's benchmark: five fixed, seeded workloads
// against the real engine (realtime scheduler, real sockets, real fsyncs),
// every metric printed by name with its unit, every output checked.
//
//	skyperf -seed 1                       all five workloads, end to end
//	skyperf -seed 1 -trace 1              the traced, staged-replay run: per-layer metrics
//	skyperf -workload serve-hot -seed 7 -seconds 10 -trace 0
//	                                      one workload; the last line of standard
//	                                      output is the result as one JSON object
//	skyperf -quick                        1/20 size, a few seconds (the smoke test)
//	skyperf -compare a.json b.json        apply BENCHMARK.json's bounds to two results
//
// One process hosts both the system under test and the load generator.  See
// README.md beside this file for what each workload and metric means.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// Input sizes.  The night the ingest workloads load and the catalog the
// serving workloads serve; -quick divides the row counts by quickDivisor.
const (
	ingestFiles  = 28
	ingestRows   = 500_000
	serveFiles   = 16
	serveRows    = 400_000
	quickDivisor = 20
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 2
)

// run is the context one workload runs in.
type run struct {
	seed    int64
	seconds float64
	traced  bool
	quick   bool
	workDir string
	par     int // loaders and client connections
	res     *Result
	rec     *recorder // non-nil on traced runs
	probes  []float64 // host probe times of this run, in ms
}

// rows scales an input size for -quick.
func (r *run) rows(n int) int {
	if r.quick {
		return n / quickDivisor
	}
	return n
}

// budget returns share of the run's measuring time.
func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// dir returns a fresh, empty directory under the run's work directory.
func (r *run) dir(name string) (string, error) {
	d := filepath.Join(r.workDir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// setUp runs fn setupReps times and reports the median as setup_s; the last
// repetition's products are the ones the run uses.
func (r *run) setUp(fn func() error) error {
	var samples []float64
	for i := 0; i < setupReps; i++ {
		s, err := timeIt(fn)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		samples = append(samples, s)
	}
	r.res.e2e("setup_s", "s", summarize(samples))
	return nil
}

// workload is one of the five named workloads.
type workload struct {
	name, why string
	// untraced measures the end-to-end metrics; traced runs the staged
	// replay that splits the same inputs by layer.
	untraced, traced func(*run) error
}

var workloads = []workload{
	{"ingest-bulk", "the paper's headline path: parse, transform, array-set, batch apply and per-batch index maintenance do the work; no log device, seal, checkpoint or recovery", ingestBulk, traceIngest},
	{"ingest-durable", "the same night with a WAL directory, deferred indexes, frequent fsynced commits, checkpoint, seal, kill and recover: it uses the index and log layers the other way", ingestDurable, traceIngest},
	{"serve-hot", "Zipf over 512 queries that fit the result cache: execution is nearly free, so HTTP parse/encode, admission and the cache probe are the whole cost", serveHot, traceServe},
	{"serve-mixed", "a never-repeating trace served while a second night bulk-loads into the same tables: cover, index scan, row decode, lock waits and epoch invalidation dominate", serveMixed, traceServe},
	{"shard-scatter", "three agents behind a coordinator: routing, wire codec, agent execute and gather; lookups and histograms broadcast, cones go only to overlapping shards", shardScatter, traceShard},
}

func main() { os.Exit(realMain()) }

// realMain is main with an exit code, so that its deferred clean-up runs.
func realMain() int {
	var (
		name    = flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 18, "measuring time per workload")
		traced  = flag.Int("trace", 0, "1 runs the traced staged replay (per-layer metrics) instead of the end-to-end run")
		quick   = flag.Bool("quick", false, "1/20 size, a few seconds: checks the benchmark's own code")
		out     = flag.String("out", "", "result file (default .bench_build/results/skyperf-seed<N>[-trace].json)")
		work    = flag.String("workdir", "", "directory for generated inputs and WAL files (default .bench_build/work)")
		compare = flag.Bool("compare", false, "compare two result files given as arguments against BENCHMARK.json's bounds")
		manif   = flag.String("benchmark", "", "path of BENCHMARK.json for -compare (default: found upward from the working directory)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files (or two comma-separated lists of them)"))
		}
		worse, err := compareFiles(os.Stdout, *manif, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	if *quick && !isFlagSet("seconds") {
		*seconds = 2
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
	}

	root := *work
	if root == "" {
		root = filepath.Join(".bench_build", "work")
	}
	// One directory per process, so concurrent invocations do not collide.
	workDir := filepath.Join(root, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(workDir)

	file := RunFile{Host: hostRecord(workDir), Seed: *seed, Quick: *quick}
	for _, warn := range file.Host.Warnings {
		fmt.Println("warning:", warn)
	}
	fmt.Printf("host: commit %s, %s, nproc %d, GOMAXPROCS %d, loaders %d, client connections %d, work directory on %s\n",
		file.Host.Commit, file.Host.GoVersion, file.Host.NProc, file.Host.GOMAXPROCS, file.Host.Loaders, file.Host.Clients, file.Host.WorkDirFS)

	ok := true
	for _, w := range selected {
		r := &run{seed: *seed, seconds: *seconds, traced: *traced == 1, quick: *quick, workDir: workDir, par: parallelism()}
		r.res = &Result{Workload: w.name, Why: w.why, Seed: *seed, Seconds: *seconds, Traced: r.traced}
		fn := w.untraced
		if r.traced {
			fn = w.traced
			r.rec = newRecorder(w.name)
		}
		if err := fn(r); err != nil {
			r.res.check("run completed", err)
		}
		if r.traced {
			r.res.PerLayer = perLayerMetrics(r)
			path := spanPath(*out, *seed, w.name)
			r.res.check("span file written", r.rec.write(path))
			r.res.SpanFile = path
		}
		r.res.finish()
		r.res.print(os.Stdout)
		ok = ok && r.res.Correct
		file.Results = append(file.Results, *r.res)
		// Drop the workload's databases before the next one measures memory.
		runtime.GC()
	}
	if len(selected) > 1 {
		ok = crossChecks(&file) && ok
	}

	path := *out
	if path == "" {
		suffix := ""
		if *traced == 1 {
			suffix = "-trace"
		}
		path = filepath.Join(".bench_build", "results", fmt.Sprintf("skyperf-seed%d%s.json", *seed, suffix))
	}
	if err := file.write(path); err != nil {
		return fail(err)
	}
	fmt.Printf("\nresult written to %s\n", path)

	if !ok {
		// A run whose outputs were wrong prints no one-line result.
		fmt.Println("FAILED: a correctness check did not pass; the metrics above are invalid")
		return 1
	}
	if *name != "" {
		// The one-line result, last on standard output.
		line, err := file.Results[0].contractLine()
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	return 0
}

// crossChecks compares workloads of one invocation with each other: for one
// seed the two ingest workloads load the same text and must end with the
// same rows in every table.
func crossChecks(f *RunFile) bool {
	counts := map[string]string{}
	for _, r := range f.Results {
		counts[r.Workload] = r.TableCounts
	}
	a, b := counts["ingest-bulk"], counts["ingest-durable"]
	if a == "" || b == "" || a == b {
		return true
	}
	fmt.Printf("check FAIL ingest-bulk and ingest-durable disagree on per-table rows:\n  %s\n  %s\n", a, b)
	return false
}

func spanPath(out string, seed int64, workload string) string {
	dir := filepath.Join(".bench_build", "results")
	if out != "" {
		dir = filepath.Dir(out)
	}
	return filepath.Join(dir, fmt.Sprintf("spans-seed%d-%s.json", seed, workload))
}

func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// hostRecord captures the host shape every result carries, and warns about
// what would make the numbers flatter than they look.
func hostRecord(workDir string) Host {
	h := Host{
		Commit: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Loaders: parallelism(), Clients: parallelism(),
		WorkDir: workDir, WorkDirFS: fsType(workDir),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.WorkDirFS == "tmpfs" {
		h.Warnings = append(h.Warnings, "the work directory is on tmpfs, where fsync is free: ingest-durable's commit and checkpoint costs are understated")
	}
	if h.NProc == 1 {
		h.Warnings = append(h.Warnings, "1 CPU: loaders, clients and the server share it; parallel.speedup is unresolved")
	}
	return h
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "skyperf:", err)
	return 1
}

// timeIt runs fn and returns how long it took, in seconds.
func timeIt(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}
