package dist

import "time"

// policy is the dist layer's transport policy: every deadline, retry
// budget and batching bound either side of the wire applies. Production
// Coordinators and Workers run defaultPolicy; in-package tests shorten a
// copy to reach failure paths quickly.
type policy struct {
	// chunkTimeout bounds one chunk's execution, streaming included; a
	// chunk that exceeds it is re-dispatched.
	chunkTimeout time.Duration
	// readTimeout bounds the silence between a worker's frames. Workers
	// heartbeat while executing, so a tripped read means the worker is
	// gone, not slow.
	readTimeout time.Duration
	// writeTimeout bounds one frame send to a worker, so a worker that
	// stops reading cannot wedge a dispatch.
	writeTimeout time.Duration
	// dialTimeout bounds the connect, and separately the hello reply.
	dialTimeout time.Duration
	// maxFailures is the consecutive-failure budget before a worker is
	// abandoned for the rest of the job.
	maxFailures int
	// backoffBase and backoffMax bound the jittered exponential
	// reconnect backoff.
	backoffBase, backoffMax time.Duration

	// heartbeat is a worker's liveness-frame interval while a chunk
	// executes.
	heartbeat time.Duration
	// workerWriteTimeout bounds one frame send to a coordinator, so a
	// coordinator that stops reading cannot wedge the sender.
	workerWriteTimeout time.Duration
	// idleTimeout bounds the silence on a worker's connection before it
	// is reaped, so a half-open one cannot leak its goroutine. It is
	// generous: pooled connections idle between chunks.
	idleTimeout time.Duration
	// A worker flushes its result_batch once it holds batchRuns runs,
	// and at least every batchFlush while runs are buffered, so a slow
	// trickle still reaches the coordinator's progress hooks promptly.
	batchRuns  int
	batchFlush time.Duration
}

var defaultPolicy = policy{
	chunkTimeout: 5 * time.Minute,
	readTimeout:  10 * time.Second,
	writeTimeout: 10 * time.Second,
	dialTimeout:  3 * time.Second,
	maxFailures:  3,
	backoffBase:  50 * time.Millisecond,
	backoffMax:   5 * time.Second,

	heartbeat:          time.Second,
	workerWriteTimeout: 15 * time.Second,
	idleTimeout:        5 * time.Minute,
	batchRuns:          64,
	batchFlush:         25 * time.Millisecond,
}

// orDefault returns p, or defaultPolicy for the nil policy every
// Coordinator and Worker outside this package's tests carries.
func (p *policy) orDefault() *policy {
	if p == nil {
		return &defaultPolicy
	}
	return p
}
