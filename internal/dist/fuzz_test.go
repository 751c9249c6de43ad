package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/population"
)

// FuzzChunkStream's dispatch: a job of fuzzJobRuns runs, of which the
// chunk under test is [fuzzChunkStart, fuzzChunkStart+fuzzChunkCount).
// Offsets outside it belong to the job but not to the chunk.
const (
	fuzzJobRuns    = 8
	fuzzChunkStart = 2
	fuzzChunkCount = 4
)

// batchLine renders a result_batch frame for chunk id whose metric "m"
// equals each run's offset plus bias.
func batchLine(id uint64, bias float64, offs ...int) string {
	b := &ResultBatch{}
	for _, off := range offs {
		b.add(off, map[string]float64{"m": float64(off) + bias}, uint64(off), 1)
	}
	line, err := json.Marshal(frame{Type: frameResultBatch, ID: id, Batch: b})
	if err != nil {
		panic(err)
	}
	return string(line) + "\n"
}

func doneLine(id uint64) string {
	return fmt.Sprintf(`{"type":"chunk_done","id":%d}`+"\n", id)
}

// chunkStreamSeeds are worker replies to chunk ID 1 — the first ID a
// fresh coordinator issues — with the dispatch outcome each must give:
// "" for a committed chunk (whose metric "m" equals each offset), else a
// substring of the error.
var chunkStreamSeeds = []struct{ name, reply, wantErr string }{
	{"valid", `{"type":"heartbeat","id":1}` + "\n" + batchLine(1, 0, 3, 2) + batchLine(1, 0, 5, 4) + doneLine(1), ""},
	{"ragged", `{"type":"result_batch","id":1,"batch":{"offsets":[2,3],"cycles":[2],"elapsed_us":[1,1]}}` + "\n", "ragged"},
	{"duplicate", batchLine(1, 0, 2, 3) + batchLine(1, 0, 3, 4) + doneLine(1), "duplicate or out-of-chunk offset 3"},
	{"out-of-range", batchLine(1, 0, 2, 3, 4, 6) + doneLine(1), "duplicate or out-of-chunk offset 6"},
	{"stale-id", batchLine(7, -100, 2, 3, 4, 5) + doneLine(7) + batchLine(1, 0, 2, 3, 4, 5) + doneLine(1), ""},
	{"short", batchLine(1, 0, 2, 3) + doneLine(1), "2/4 results"},
	{"legacy-v1-result", `{"type":"result","id":1,"offset":2,"metrics":{"m":2}}` + "\n", "unexpected result frame"},
}

// hungUpPipe is the coordinator's end of a net.Pipe whose worker hangs
// up after replying. A pipe end refuses new deadlines once its peer has
// closed, even while reply bytes still sit in the reader's buffer; a TCP
// socket keeps accepting them, so the refusal is dropped here. Reads
// past the reply still end in io.EOF.
type hungUpPipe struct{ net.Conn }

func (p hungUpPipe) SetReadDeadline(t time.Time) error {
	p.Conn.SetReadDeadline(t)
	return nil
}

// driveChunkStream dispatches the fuzz chunk to a worker that answers
// with reply and hangs up, and returns the run state and dispatch error.
// A dispatch that does not return promptly fails tb.
func driveChunkStream(tb testing.TB, reply []byte) (*runState, error) {
	coordSide, workerSide := net.Pipe()
	c := &Coordinator{pol: policyWith(func(p *policy) {
		p.chunkTimeout = 5 * time.Second
		p.readTimeout = time.Second
	})}
	cn := newConn(hungUpPipe{coordSide}, time.Second)
	cn.addr = "fuzz"
	q := newWorkQueue(fuzzJobRuns)
	st := newRunState(fuzzJobRuns, q)
	q.take(fuzzChunkStart) // the runs before the chunk: another dispatch's
	ch := q.take(fuzzChunkCount)

	replied := make(chan struct{})
	go func() {
		defer close(replied)
		defer workerSide.Close()
		if _, err := bufio.NewReader(workerSide).ReadBytes('\n'); err == nil { // the run_chunk frame
			workerSide.Write(reply)
		}
	}()
	done := make(chan error, 1)
	go func() { done <- c.dispatch(cn, testJob(), testSeed, ch, st, population.RunHooks{}) }()
	select {
	case err := <-done:
		cn.close() // unblocks the worker's write if dispatch stopped reading early
		<-replied
		return st, err
	case <-time.After(5 * time.Second):
		tb.Fatalf("dispatch still running 5s after the worker replied %q", reply)
		return nil, nil
	}
}

// FuzzChunkStream feeds arbitrary bytes as a worker's reply to one
// dispatched chunk. Dispatch must return promptly without panicking; when
// it accepts the stream it commits exactly the chunk's offsets, each
// once, and when it rejects the stream it commits nothing.
func FuzzChunkStream(f *testing.F) {
	for _, s := range chunkStreamSeeds {
		st, err := driveChunkStream(f, []byte(s.reply))
		switch {
		case s.wantErr == "" && err != nil:
			f.Errorf("seed %s: %v, want the chunk committed", s.name, err)
		case s.wantErr != "" && (err == nil || !strings.Contains(err.Error(), s.wantErr)):
			f.Errorf("seed %s: error %v, want one containing %q", s.name, err, s.wantErr)
		case err == nil:
			for off := fuzzChunkStart; off < fuzzChunkStart+fuzzChunkCount; off++ {
				if r := st.results[off]; r.Metrics["m"] != float64(off) {
					f.Errorf("seed %s: offset %d committed %+v, want metric m=%d", s.name, off, r, off)
				}
			}
		}
		f.Add([]byte(s.reply))
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		st, err := driveChunkStream(t, reply)
		for off, got := range st.got {
			inChunk := off >= fuzzChunkStart && off < fuzzChunkStart+fuzzChunkCount
			if got != (err == nil && inChunk) {
				t.Fatalf("dispatch returned %v but offset %d committed=%v", err, off, got)
			}
			if got && st.results[off].Offset != off {
				t.Fatalf("offset %d committed a run for offset %d", off, st.results[off].Offset)
			}
		}
		want := fuzzJobRuns
		if err == nil {
			want -= fuzzChunkCount
		}
		if st.remaining != want {
			t.Fatalf("dispatch returned %v with %d runs remaining, want %d", err, st.remaining, want)
		}
	})
}
