package stl_test

import (
	"fmt"

	"repro/internal/stl"
)

// Parse and evaluate a temporal property over a sampled execution trace:
// "whenever IPC drops below 0.3, it recovers above 0.5 within 200 cycles".
func ExampleParse() {
	tr, _ := stl.NewTrace(100)
	_ = tr.Add("ipc", []float64{0.8, 0.2, 0.7, 0.9, 0.1, 0.6})

	f, err := stl.Parse("G[0,inf]((ipc < 0.3) -> F[0,200](ipc > 0.5))")
	if err != nil {
		panic(err)
	}
	ok, _ := f.Sat(tr, 0)
	fmt.Println(ok)
	// Output: true
}
