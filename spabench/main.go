// Command spabench is the repository's end-to-end benchmark. It drives SPA
// campaigns through the entry points users run — manifest.Runner in
// process, manifest.Runner over a loopback dist fleet, and the campaignd
// service behind its HTTP handler — checks every report against committed
// digests, and prints one JSON result line.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash spabench/run.sh --workload suite-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics: medians over as
// many repetitions as fit in --seconds. With --trace 1 it runs untraced
// repetitions for the overhead baseline, then one traced repetition, and
// carries the per-layer metrics. See README.md for the workloads and the
// metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose report digests and exact counts are
// committed in golden.json.
const defaultSeed = 1

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd lists the untraced metrics and their units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"makespan_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"full_runs", "runs"},
	{"sim_runs", "runs"},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("spabench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: suite-cold, adaptive-fleet or spad-sweep")
	seed := fs.Uint64("seed", defaultSeed, "input seed; manifests are generated from it")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced repetition and prints per-layer metrics")
	record := fs.Bool("record", false, "store this run's report digests and exact counts in golden.json for --seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "spabench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	src, err := sourceDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spabench:", err)
		return 1
	}
	golden, err := loadGolden(filepath.Join(src, "golden.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "spabench:", err)
		return 1
	}
	build := filepath.Join(filepath.Dir(src), ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "spabench:", err)
		return 1
	}
	work, err := os.MkdirTemp(build, "run-"+w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spabench:", err)
		return 1
	}
	// Repetitions keep their directories until the invocation ends, so
	// deleting one's files never lands in a later one's timed phase; the
	// sync pushes the deletion out before the process exits.
	defer func() {
		os.RemoveAll(work)
		syscall.Sync()
	}()

	b := &bench{w: w, seed: *seed, work: work, budget: time.Duration(*seconds) * time.Second}
	if !*record {
		b.want = golden.lookup(w.name, *seed)
	}
	var res result
	if *trace == 1 {
		res = b.traced()
	} else {
		res = b.untraced()
	}
	if *record {
		if !res.Correct {
			fmt.Fprintln(os.Stderr, "spabench: not recording a run with failed operations")
			return 1
		}
		if err := golden.store(filepath.Join(src, "golden.json"), w.name, *seed, b.got); err != nil {
			fmt.Fprintln(os.Stderr, "spabench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spabench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// sourceDir locates the benchmark's own directory (holding golden.json)
// under the working directory, which is the repository root.
func sourceDir() (string, error) {
	dir, err := filepath.Abs("spabench")
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(dir, "golden.json")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	return dir, nil
}

// workload builds one repetition: set-up returns an instance whose run is
// the timed phase.
type workload struct {
	name  string
	setup func(dir string, seed uint64, tr *tracer) (instance, error)
}

type instance interface {
	// run executes the timed phase; tr is nil in untraced repetitions.
	run(tr *tracer) (*outcome, error)
	close()
}

var workloads = map[string]workload{
	"suite-cold":     {"suite-cold", setupSuite},
	"adaptive-fleet": {"adaptive-fleet", setupFleet},
	"spad-sweep":     {"spad-sweep", setupSweep},
}

func workloadNames() []string { return sortedKeys(workloads) }

// profiles are the nine benchmark profiles, in a fixed order so manifests
// do not depend on the simulator's registry order.
var profiles = []string{"blackscholes", "bodytrack", "canneal", "dedup", "ferret",
	"fluidanimate", "freqmine", "streamcluster", "swaptions"}

// manifestSeed derives a manifest's root seed from the benchmark seed.
// Seeds are 2^32 apart, so the entry offsets the runner adds (1e6 per
// entry) never make two benchmark seeds share a population.
func manifestSeed(seed uint64, k int) uint64 { return seed<<32 + uint64(k)<<24 }

// bench is one invocation: a workload, its seed and its time budget.
type bench struct {
	w      workload
	seed   uint64
	work   string
	budget time.Duration
	want   *goldenEntry // committed digests and counts; nil on other seeds

	attempted, failed int
	got               goldenEntry      // what this invocation measured, for --record
	bypassed          map[string]int64 // the latest repetition's bypass observations
}

// rep is one repetition's measurements.
type rep struct {
	setup, makespan, cpu time.Duration
	out                  *outcome
}

// repeat runs untraced repetitions until the next one would overrun
// budget, always at least one.
func (b *bench) repeat(budget time.Duration) []rep {
	start := time.Now()
	var reps []rep
	for i := 0; ; i++ {
		r, err := b.once(i, nil)
		if err != nil {
			b.fail(fmt.Sprintf("repetition %d: %v", i, err))
		} else {
			reps = append(reps, r)
		}
		each := time.Since(start) / time.Duration(i+1)
		if time.Since(start)+each > budget {
			return reps
		}
	}
}

func (b *bench) untraced() result {
	reps := b.repeat(b.budget)
	res := result{Metrics: map[string]metricValue{}}
	var setup, makespan, cpu []float64
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		makespan = append(makespan, r.makespan.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
	}
	vals := map[string]float64{
		"setup_s":     median(setup),
		"makespan_s":  median(makespan),
		"cpu_s":       median(cpu),
		"peak_rss_mb": peakRSSMB(),
	}
	if len(reps) > 0 {
		vals["full_runs"] = float64(reps[0].out.counts["full_runs"])
		vals["sim_runs"] = float64(reps[0].out.counts["sim_runs"])
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return b.finish(res)
}

func (b *bench) traced() result {
	// Leave room for the traced repetition, which takes about as long as
	// an untraced one plus its tracing overhead.
	reps := b.repeat(b.budget * 2 / 5)
	var base []float64
	for _, r := range reps {
		base = append(base, r.makespan.Seconds())
	}
	tr := newTracer()
	r, err := b.once(len(reps), tr)
	res := result{Metrics: map[string]metricValue{}}
	if err != nil {
		b.fail("traced repetition: " + err.Error())
	} else {
		if m := median(base); m > 0 {
			tr.set("obs.trace_overhead_frac", r.makespan.Seconds()/m-1)
		}
		// Layers the workload bypasses report what the repetitions
		// observed; the traced run may compose calls that never reach them.
		for name, v := range b.bypassed {
			if _, ok := tr.layer[name]; !ok {
				tr.count(name, v)
			}
		}
		b.checkCounts(tr.exact)
		b.op(len(tr.problems) == 0, "traced repetition: "+strings.Join(tr.problems, "; "))
		if err := tr.writeSpans(filepath.Join(filepath.Dir(b.work), fmt.Sprintf("trace-%s-seed%d.jsonl", b.w.name, b.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "spabench: writing spans:", err)
		}
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: tr.layer[m.name], Unit: m.unit}
	}
	return b.finish(res)
}

func (b *bench) finish(res result) result {
	res.Attempted, res.Failed = b.attempted, b.failed
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = res.Failed == 0
	return res
}

// fail records one failed operation and says why on stderr.
func (b *bench) fail(why string) {
	b.attempted++
	b.failed++
	fmt.Fprintf(os.Stderr, "spabench: %s: FAILED: %s\n", b.w.name, why)
}

// once runs one repetition in a fresh directory: set-up (timed as
// setup_s), the timed phase, the correctness checks and teardown.
func (b *bench) once(i int, tr *tracer) (rep, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("rep%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep{}, err
	}
	syscall.Sync()
	runtime.GC()
	t0 := time.Now()
	inst, err := b.w.setup(dir, b.seed, tr)
	setup := time.Since(t0)
	if err != nil {
		return rep{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	// Start the timed phase from a clean heap and with the set-up's and
	// earlier repetitions' file writes on disk: on a VM, flushing them
	// costs host time that would otherwise land in this measurement.
	runtime.GC()
	syscall.Sync()
	var stopProfile func() error
	if tr != nil {
		if stopProfile, err = tr.startProfile(); err != nil {
			return rep{}, err
		}
	}
	cpu0, steal0 := cpuTime(), stealTime()
	t1 := time.Now()
	out, err := inst.run(tr)
	makespan := time.Since(t1)
	cpu, steal := cpuTime()-cpu0, stealTime()-steal0
	if stopProfile != nil {
		if perr := stopProfile(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return rep{}, err
	}
	b.check(out)
	fmt.Fprintf(os.Stderr, "spabench: %s rep %d: setup %.6fs makespan %.3fs cpu %.3fs host steal %.3fs\n",
		b.w.name, i, setup.Seconds(), makespan.Seconds(), cpu.Seconds(), steal.Seconds())
	return rep{setup: setup, makespan: makespan, cpu: cpu, out: out}, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the machine's cumulative hypervisor steal time summed over
// CPUs, from /proc/stat (0 where unavailable). It is logged beside each
// repetition so a slow one can be told apart from a contended host.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs, 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the q-quantile of xs by the nearest-rank rule, so
// every reported percentile is an observed value; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}
