package dist

import (
	"context"
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/population"
	"repro/internal/sim"
)

// BenchmarkDistWireEncode isolates the wire cost of shipping one chunk's
// results: JSON encode + decode of 256 runs as result_batch frames,
// flushed every defaultPolicy.batchRuns runs the way a worker sends
// them, with a realistic metric payload (one actual simulation's metric
// set, replicated). No sockets, no simulation — just the serialization the
// hot path pays per run.
func BenchmarkDistWireEncode(b *testing.B) {
	const runs = 256
	res, err := sim.Run(testBench, sim.DefaultConfig(), testScale, testSeed)
	if err != nil {
		b.Fatal(err)
	}
	var batches []frame
	rb := &ResultBatch{}
	for i := 0; i < runs; i++ {
		rb.add(i, res.Metrics, res.Cycles, 1234)
		if rb.len() == defaultPolicy.batchRuns || i == runs-1 {
			batches = append(batches, frame{Type: frameResultBatch, ID: 1, Batch: rb})
			rb = &ResultBatch{}
		}
	}
	b.ReportAllocs()
	var bytesTotal int64
	for b.Loop() {
		for i := range batches {
			data, err := json.Marshal(batches[i])
			if err != nil {
				b.Fatal(err)
			}
			bytesTotal += int64(len(data)) + 1 // newline
			var g frame
			if err := json.Unmarshal(data, &g); err != nil {
				b.Fatal(err)
			}
			if err := g.Batch.validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(batches))/runs, "frames/run")
	b.ReportMetric(float64(bytesTotal)/float64(b.N*runs), "wireB/run")
}

// lineCountConn counts newline-delimited frames read from the peer — a
// zero-parse tap on everything the coordinator receives (batches,
// heartbeats, handshakes, chunk_done).
type lineCountConn struct {
	net.Conn
	lines *atomic.Int64
}

func (c lineCountConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for _, ch := range p[:n] {
		if ch == '\n' {
			c.lines.Add(1)
		}
	}
	return n, err
}

// BenchmarkDistCampaignThroughput runs a real 2-worker loopback campaign
// per iteration, with batched results and adaptive chunk sizing at the
// CLIs' 250ms target, and reports coordinator-side inbound frames per
// run and end-to-end ns per run.
func BenchmarkDistCampaignThroughput(b *testing.B) {
	const runs = 96
	addrs := make([]string, 2)
	for i := range addrs {
		w := &Worker{Parallelism: 2, pol: policyWith(func(p *policy) {
			p.heartbeat = 200 * time.Millisecond
			p.workerWriteTimeout = 2 * time.Second
			p.idleTimeout = time.Minute
		})}
		if err := w.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		go w.Serve()
		b.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	var lines atomic.Int64
	c := &Coordinator{
		Workers: addrs,
		pol: policyWith(func(p *policy) {
			p.chunkTimeout = 30 * time.Second
			p.readTimeout = 5 * time.Second
			p.dialTimeout = 2 * time.Second
		}),
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			cn, err := net.DialTimeout(network, addr, timeout)
			if err != nil {
				return nil, err
			}
			return lineCountConn{cn, &lines}, nil
		},
	}
	for b.Loop() {
		if _, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale,
			runs, testSeed, population.RunHooks{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lines.Load())/float64(b.N*runs), "frames/run")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runs), "ns/run")
}
