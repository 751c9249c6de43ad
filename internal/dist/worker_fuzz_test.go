package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// An input FuzzWorkerFrames runs may cost at most fuzzMaxRuns simulator
// runs, at scales up to fuzzMaxScale, on a configuration some variant
// uses: the target exercises frame handling, not the simulator.
const (
	fuzzMaxRuns  = 4
	fuzzMaxScale = 0.01
)

// workerReplies is what a worker owes one input: its replies in order,
// and the IDs of the chunks it accepts, whose heartbeats may come
// between (or just after) those replies.
type workerReplies struct {
	want     []frame
	accepted map[uint64]bool
}

// expectedReplies walks the frames a worker decodes from in, the way
// serveConn does: a hello at ProtocolVersion gets hello_ok; a refused
// frame gets an error frame, after which the worker closes unless the
// frame was a malformed chunk; an accepted chunk gets an error frame
// when its runs cannot start, or else one chunk_done that carries its
// results (expected with the chunk's Start and Count). costly reports an
// input whose accepted chunks exceed the fuzzMax* limits.
func expectedReplies(in []byte) (r workerReplies, costly bool) {
	r.accepted = map[uint64]bool{}
	dec := json.NewDecoder(bytes.NewReader(in))
	hello := false
	runs := 0
	for {
		var f frame
		if dec.Decode(&f) != nil {
			return r, false // end of input, or bytes that are no frame: the worker closes
		}
		switch {
		case f.Type == frameHello && f.Version != ProtocolVersion:
			r.want = append(r.want, frame{Type: frameError})
			return r, false
		case f.Type == frameHello:
			r.want = append(r.want, frame{Type: frameHelloOK})
			hello = true
		case !hello || f.Type != frameRunChunk:
			r.want = append(r.want, frame{Type: frameError, ID: f.ID})
			return r, false
		case f.Count < 1 || f.Count > maxChunk || f.Start < 0 || f.Config == nil || f.Benchmark == "":
			r.want = append(r.want, frame{Type: frameError, ID: f.ID})
		default:
			r.accepted[f.ID] = true
			if _, err := workload.ByName(f.Benchmark); err != nil || f.Config.Validate() != nil {
				r.want = append(r.want, frame{Type: frameError, ID: f.ID})
				continue
			}
			runs += f.Count
			if runs > fuzzMaxRuns || f.Scale > fuzzMaxScale || !isVariantConfig(*f.Config) {
				return r, true
			}
			r.want = append(r.want, frame{Type: frameChunkDone, ID: f.ID, Start: f.Start, Count: f.Count})
		}
	}
}

func isVariantConfig(cfg sim.Config) bool {
	for _, v := range []string{"default", "hardware", "l2half", "l2double"} {
		if vc, err := sim.VariantConfig(v); err == nil && vc == cfg {
			return true
		}
	}
	return false
}

// checkReplies reads the worker's replies on nc until it closes the
// connection, and fails t unless they are exactly r.want, apart from
// heartbeats of accepted chunks. Each chunk_done must carry each of its
// chunk's offsets once.
func checkReplies(t *testing.T, nc net.Conn, r workerReplies) {
	want := r.want
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	dec := json.NewDecoder(nc)
	next := 0
	for {
		var got frame
		err := dec.Decode(&got)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("worker still holds the connection 10s after the input ended (%d of %d replies)", next, len(want))
		}
		if err != nil {
			break // the worker closed the connection
		}
		if got.Type == frameHeartbeat && r.accepted[got.ID] {
			continue
		}
		if next == len(want) {
			t.Fatalf("unexpected reply %+v after the %d expected", got, len(want))
		}
		w := want[next]
		switch {
		case got.Type != w.Type || got.ID != w.ID:
			t.Fatalf("reply %d is %s for id %d, want %s for id %d", next, got.Type, got.ID, w.Type, w.ID)
		case got.Type == frameHelloOK && got.Version != ProtocolVersion:
			t.Fatalf("hello_ok at version %d", got.Version)
		case got.Type == frameChunkDone:
			if got.Batch == nil || got.Batch.validate() != nil || len(got.Batch.Offsets) != w.Count {
				t.Fatalf("chunk %d [%d,+%d) done with results %+v", w.ID, w.Start, w.Count, got.Batch)
			}
			seen := map[int]bool{}
			for _, off := range got.Batch.Offsets {
				if off < w.Start || off >= w.Start+w.Count || seen[off] {
					t.Fatalf("chunk %d [%d,+%d) carries offset %d twice or outside it", w.ID, w.Start, w.Count, off)
				}
				seen[off] = true
			}
		}
		next++
	}
	if next != len(want) {
		t.Fatalf("worker closed the connection after %d of %d replies (next: %+v)", next, len(want), want[next])
	}
}

// FuzzWorkerFrames writes arbitrary bytes, as a coordinator's frame
// lines, to a worker on a loopback connection and half-closes it. The
// worker must not panic, must end the connection within a deadline, and
// must answer exactly as expectedReplies says: every refused frame gets
// an error frame or a close, never work, and a valid hello gets hello_ok.
// A short idle reap bounds any connection the worker would leave
// waiting for more input.
func FuzzWorkerFrames(f *testing.F) {
	cfg := sim.DefaultConfig()
	line := func(fr frame) string {
		b, err := json.Marshal(fr)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	chunk := func(start, count int) string {
		return line(frame{Type: frameRunChunk, ID: 1, Benchmark: testBench, Config: &cfg,
			Scale: fuzzMaxScale, BaseSeed: testSeed, Start: start, Count: count})
	}
	hello := line(frame{Type: frameHello, Version: ProtocolVersion})
	for _, seed := range []string{
		hello,
		hello + chunk(0, 1),
		chunk(0, 1),
		line(frame{Type: frameHello, Version: ProtocolVersion - 1}),
		hello + chunk(0, 0),
		hello + chunk(0, maxChunk+1),
		hello + chunk(-1, 1),
		hello + `{"type":"run_chunk","id":1,"benchmark":"swaptions","config":null,"scale":0.01,"count":1}` + "\n",
	} {
		f.Add([]byte(seed))
	}

	w := &Worker{Parallelism: 1, pol: policyWith(func(p *policy) { p.idleTimeout = 500 * time.Millisecond })}
	if err := w.Listen("127.0.0.1:0"); err != nil {
		f.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()
	f.Cleanup(func() {
		w.Close()
		if err := <-served; err != nil {
			f.Errorf("worker serve: %v", err)
		}
	})

	f.Fuzz(func(t *testing.T, in []byte) {
		replies, costly := expectedReplies(in)
		if costly {
			t.Skip("input would simulate more than the fuzz budget")
		}
		nc, err := net.DialTimeout("tcp", w.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
			nc.Write(in) // a worker that refuses early may reset the connection
			nc.(*net.TCPConn).CloseWrite()
		}()
		checkReplies(t, nc, replies)
		nc.Close()
		<-wrote
	})
}
