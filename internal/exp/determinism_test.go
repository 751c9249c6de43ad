package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/population"
)

// TestEvaluateCIDeterministicAcrossParallelism pins the campaign-level
// determinism contract: every per-trial quantity is derived from (seed,
// trial index), so the aggregate tallies are identical for any worker count.
func TestEvaluateCIDeterministicAcrossParallelism(t *testing.T) {
	vals := make([]float64, 150)
	for i := range vals {
		vals[i] = float64(i%37) + float64(i)*0.01
	}
	pop := &population.Population{Benchmark: "synth", Runs: len(vals), Metrics: map[string][]float64{"m": vals}}
	methods := []Method{MethodSPA, MethodBootstrap, MethodRank, MethodZScore}
	var base []MethodEval
	for i, par := range []int{1, 4} {
		opts := tinyOpts()
		opts.Parallelism = par
		evals, err := NewEngine(opts).EvaluateCI(pop, "m", 0.5, 0.9, methods)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		if i == 0 {
			base = evals
			continue
		}
		if !reflect.DeepEqual(evals, base) {
			t.Errorf("parallelism=%d: evals differ from sequential run:\n%+v\nvs\n%+v", par, evals, base)
		}
	}
}

// TestEvaluateCIErrorIndependentOfScheduling: every trial of an unknown
// method fails, and the error must name trial 0 on every call, not
// whichever concurrent trial failed first.
func TestEvaluateCIErrorIndependentOfScheduling(t *testing.T) {
	vals := make([]float64, 150)
	for i := range vals {
		vals[i] = float64(i%37) + float64(i)*0.01
	}
	pop := &population.Population{Benchmark: "synth", Runs: len(vals), Metrics: map[string][]float64{"m": vals}}
	opts := tinyOpts()
	opts.Trials = 400
	opts.Parallelism = 8
	e := NewEngine(opts)
	for call := 0; call < 50; call++ {
		_, err := e.EvaluateCI(pop, "m", 0.5, 0.9, []Method{"nope"})
		if err == nil || !strings.Contains(err.Error(), " trial 0: ") {
			t.Fatalf("call %d: error %v, want trial 0's", call, err)
		}
	}
}

// TestFiguresDeterministicAcrossParallelism renders the fanned-out figures
// (metric cells, benchmark cells) at two parallelism levels and requires
// byte-identical tables: the cell fan-out must not reorder rows or perturb
// any trial stream.
func TestFiguresDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("renders multi-benchmark figures")
	}
	render := func(par int) map[string]string {
		opts := tinyOpts()
		opts.Parallelism = par
		e := NewEngine(opts)
		out := map[string]string{}
		for name, build := range map[string]func() (*Table, error){
			"fig6":  e.Fig6,
			"fig10": e.Fig10,
		} {
			tab, err := build()
			if err != nil {
				t.Fatalf("parallelism=%d %s: %v", par, name, err)
			}
			var buf bytes.Buffer
			tab.Render(&buf)
			out[name] = buf.String()
		}
		return out
	}
	seq := render(1)
	par := render(4)
	for name := range seq {
		if seq[name] != par[name] {
			t.Errorf("%s differs between parallelism 1 and 4:\n--- seq ---\n%s\n--- par ---\n%s",
				name, seq[name], par[name])
		}
	}
}
