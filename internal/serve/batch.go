package serve

import (
	"context"
	"sync"
	"time"
)

// job is one cache-missed column travelling through the micro-batcher.
// done is closed exactly once, after vec/err are set.
type job struct {
	col  columnWork
	key  cacheKey
	vec  []float64
	err  error
	done chan struct{}
	// enqueued (zero when tracing is off) and spans (nil when the request
	// is untraced) carry the observability context: the dispatcher
	// attributes batch-wait and signature time back to the submitting
	// request through them. Purely observational.
	enqueued time.Time
	spans    *spanSet
}

// columnWork is the minimal column payload a job carries (decoupled from
// table.Column so the batcher file has no table dependency).
type columnWork struct {
	name   string
	values []float64
}

func (j *job) finish(vec []float64, err error) {
	j.vec, j.err = vec, err
	close(j.done)
}

// batcher coalesces concurrently arriving jobs into batches: the dispatcher
// takes the first pending job plus whatever is already queued behind it, up
// to maxBatch, and never waits for more. A lone request is embedded at once;
// under concurrent clients the jobs that arrive while one batch runs form
// the next, so the queue drains in large strides, each stride paying for one
// pooled signature pass.
type batcher struct {
	jobs     chan *job
	quit     chan struct{}
	finished chan struct{}
	stop     sync.Once
	// mu/closed fence submission against shutdown: submits hold the read
	// side across the channel send, so once close() has taken the write
	// side and set closed, no job can slip into the queue behind the final
	// drain and leave its submitter waiting forever.
	mu       sync.RWMutex
	closed   bool
	maxBatch int
}

func newBatcher(queueDepth, maxBatch int) *batcher {
	return &batcher{
		jobs:     make(chan *job, queueDepth),
		quit:     make(chan struct{}),
		finished: make(chan struct{}),
		maxBatch: maxBatch,
	}
}

// submit enqueues a job, blocking for backpressure when the queue is full.
func (b *batcher) submit(ctx context.Context, j *job) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	// While any submit holds the read lock the dispatcher is still
	// running, so a full queue always drains and this send cannot
	// deadlock against close().
	select {
	case b.jobs <- j:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the dispatcher loop; process receives every batch. Runs until
// close, then fails whatever is still queued so no submitter hangs.
func (b *batcher) run(process func([]*job)) {
	defer close(b.finished)
	for {
		select {
		case j := <-b.jobs:
			process(b.collect(j))
		case <-b.quit:
			b.drain()
			return
		}
	}
}

// collect gathers first and the jobs already queued behind it, up to
// maxBatch, in queue order.
func (b *batcher) collect(first *job) []*job {
	batch := []*job{first}
	for len(batch) < b.maxBatch {
		select {
		case j := <-b.jobs:
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// isClosed reports whether close has begun.
func (b *batcher) isClosed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}

// drain fails every queued job after shutdown.
func (b *batcher) drain() {
	for {
		select {
		case j := <-b.jobs:
			j.finish(nil, ErrClosed)
		default:
			return
		}
	}
}

// close stops the dispatcher and waits for it to finish, then fails
// whatever is left in the queue. Idempotent.
func (b *batcher) close() {
	b.stop.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		close(b.quit)
	})
	<-b.finished
	b.drain()
}
