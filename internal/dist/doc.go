// Package dist distributes SPA campaigns across worker processes. SPA
// sample collection is embarrassingly parallel over seeds (Sec. 4.3 of
// the paper runs batches of independent seeded executions), so the
// subsystem shards a campaign's seed range into contiguous chunks and
// farms them out to workers over TCP, exactly the shape of distributed
// SMC engines (Bulychev et al., "Distributed Parametric and Statistical
// Model Checking").
//
// The replicability contract carries over unchanged: every run is
// identified by its absolute seed offset, results are committed by
// offset, and the coordinator returns samples ordered by seed offset —
// so a distributed campaign is byte-identical to a local one for any
// worker count, chunk size, or arrival order.
//
// Topology: a Coordinator (the campaign process) connects out to one or
// more Worker servers (cmd/spaworker). The wire protocol is
// newline-delimited JSON frames over a plain TCP connection — stdlib
// only, one connection per worker, chunks dispatched pull-style so fast
// workers naturally take more of the seed range.
//
// There is one protocol version, ProtocolVersion, so workers and
// coordinators must come from the same build: a peer at any other
// version is refused at hello (a typed HandshakeError) and abandoned at
// once, never retried. Every remote chunk is sized from the worker's
// observed throughput to take about Coordinator.ChunkTarget of wall
// time, and workers stream its results back as columnar result_batch
// frames.
//
// Failure layer: per-chunk deadlines, read and write deadlines on every
// frame, heartbeats during long chunks, idle-connection reaping and TCP
// keepalive on the worker side, bounded exponential backoff with jitter
// on reconnects, automatic re-dispatch of chunks from dead or slow
// workers to healthy ones, and graceful degradation to in-process
// execution when no worker is reachable (a coordinator with no workers
// at all is simply a local runner). Its deadlines, retry budget,
// backoff, heartbeat and batch limits are one fixed transport policy
// (defaultPolicy), not settings. A worker refuses a chunk of more runs
// than a coordinator ever carves (maxChunk).
//
// In-process execution is population.Executor on both sides: a worker
// runs each chunk on its executor, and a coordinator hands every
// still-queued seed range whole to one executor shared by its concurrent
// jobs. Its arenas bound how many simulations run at once, and it stops
// launching as soon as a job is cancelled or a run fails.
//
// The transport is injectable — Coordinator.Dial and the worker's
// unexported listen seam replace the real network — which is how the
// chaos soak (TestChaos*, run by CI at two seeds) uses internal/faultx
// to subject the whole layer to deterministic, seeded faults (delays,
// stalls, abrupt closes, truncated and duplicated frames, refused
// connects) and proves the byte-identity contract holds under network
// pathology, not just clean failures.
package dist
