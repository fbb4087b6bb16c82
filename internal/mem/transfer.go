package mem

import "relief/internal/sim"

// DefaultChunkBytes is the granularity at which transfers are decomposed
// before being offered to resources. 4 KiB approximates a DMA burst train:
// small enough that concurrent streams share bandwidth fairly, large enough
// to keep event counts low.
const DefaultChunkBytes = 4096

// TransferResult describes a completed transfer for bandwidth bookkeeping.
type TransferResult struct {
	Bytes int64
	Start sim.Time
	End   sim.Time
	// Corrupt marks a payload that arrived with a CRC failure (fault
	// injection); the DMA engine is expected to re-run the transfer.
	Corrupt bool
}

// AchievedBandwidth returns the end-to-end bandwidth of the transfer in
// bytes per second.
func (t TransferResult) AchievedBandwidth() float64 {
	d := t.End - t.Start
	if d <= 0 {
		return 0
	}
	return float64(t.Bytes) / d.Seconds()
}

// inlineStages is how many path stages a pooled transfer serves from its
// fixed per-stage arrays. Paths are at most two stages today; a longer
// path takes a transfer built with spilled per-stage slices.
const inlineStages = 4

// pool is one simulation's transfer free list and claim switch. It lives
// in the kernel's Ext slot, so it is never shared across concurrent runs,
// never emptied by the garbage collector, and per-run allocation counts
// repeat exactly.
//
// Lifetime rule: a *transfer belongs to the engine from StartTransfer until
// its done callback is invoked. Nothing outside this package ever holds
// one; inside, the kernel events and resource requests that reference it
// (its start event, its chunk callbacks, its claim's completion event) are
// all fired or cancelled by the time it finishes. finish returns the
// transfer to the free list *before* calling done, because done may start
// the next transfer on the same object: whoever calls finish must not touch
// the transfer afterwards.
type pool struct {
	free   *transfer
	claims bool // analytic claims on (the default)
}

// SetClaims switches analytic transfer claims (coalesce.go) on or off for
// the simulation on k. Claims are on by default; off, every transfer is
// served chunk by chunk, the reference the claim engine must match
// bit-for-bit. Call it before the first transfer starts.
func SetClaims(k *sim.Kernel, on bool) {
	p, _ := k.Ext().(*pool)
	if p == nil {
		p = newPool(k)
	}
	p.claims = on
}

func newPool(k *sim.Kernel) *pool {
	p := &pool{claims: true}
	k.SetExt(p)
	return p
}

// transfer is the chunk-wise pipelining state of one in-flight transfer.
// Completions at every resource are FIFO, so each stage needs only a
// counter of processed chunks and a single reusable done callback, not one
// closure per chunk. Transfers are pooled per simulation (see pool): every
// callback is bound once, when the object is built, and the analytic claim
// is embedded.
type transfer struct {
	k       *sim.Kernel
	pool    *pool
	path    []Server
	n       int64
	nChunks int
	start   sim.Time
	done    func(TransferResult)

	next      []int    // per stage: index of the chunk whose completion fires next
	stageDone []func() // per stage: the chunk-completion callback
	startFn   func()   // the setup-delayed start event
	cl        claim
	nextFree  *transfer

	nextBuf [inlineStages]int
	doneBuf [inlineStages]func()
}

// getTransfer pops a transfer able to serve a path of the given length from
// k's free list.
//
//relief:hotpath
func getTransfer(k *sim.Kernel, stages int) *transfer {
	p, _ := k.Ext().(*pool)
	if p != nil && p.free != nil && stages <= len(p.free.next) {
		t := p.free
		p.free = t.nextFree
		t.nextFree = nil
		return t
	}
	return newTransfer(k, p, stages) //lint:allow hotalloc free-list miss: builds a pooled transfer (and the pool on a kernel's first transfer)
}

// newTransfer builds a pooled transfer for paths of up to
// max(stages, inlineStages) stages and binds its callbacks.
func newTransfer(k *sim.Kernel, p *pool, stages int) *transfer {
	if p == nil {
		p = newPool(k)
	}
	t := &transfer{k: k, pool: p}
	t.next, t.stageDone = t.nextBuf[:], t.doneBuf[:]
	if stages > inlineStages {
		t.next, t.stageDone = make([]int, stages), make([]func(), stages)
	}
	for s := range t.stageDone {
		s := s
		t.stageDone[s] = func() { t.advance(s) }
	}
	t.startFn = t.begin
	t.cl.init(t, len(t.next))
	return t
}

// chunkSize returns the byte count of chunk i (the tail chunk is short).
//
//relief:hotpath
func (t *transfer) chunkSize(i int) int64 {
	if i == t.nChunks-1 {
		return t.n - int64(i)*DefaultChunkBytes
	}
	return DefaultChunkBytes
}

// begin fires once the front-end setup has elapsed: complete a transfer
// with nothing to move, claim an idle path analytically, or issue the
// first chunk.
//
//relief:hotpath
func (t *transfer) begin() {
	if t.n <= 0 || len(t.path) == 0 {
		t.finish()
		return
	}
	if tryClaim(t) {
		return
	}
	t.path[0].Enqueue(t.chunkSize(0), t.stageDone[0])
}

// advance moves the next chunk out of stage s. When the last chunk leaves
// the last stage the transfer is complete. This is the per-chunk DMA
// pipeline step; it must not allocate. finish comes last: it hands the
// transfer back to the free list.
//
//relief:hotpath
func (t *transfer) advance(s int) {
	i := t.next[s]
	t.next[s]++
	last := s+1 == len(t.path)
	if !last {
		t.path[s+1].Enqueue(t.chunkSize(i), t.stageDone[s+1])
	}
	if s == 0 && i+1 < t.nChunks {
		t.path[0].Enqueue(t.chunkSize(i+1), t.stageDone[0])
	}
	if last && i == t.nChunks-1 {
		t.finish()
	}
}

// finish returns the transfer to its free list and then delivers the
// result. The done callback may reuse the object at once, so t is dead to
// the caller after this returns.
//
//relief:hotpath
func (t *transfer) finish() {
	done := t.done
	res := TransferResult{Bytes: t.n, Start: t.start, End: t.k.Now()}
	t.done, t.path = nil, nil
	t.nextFree = t.pool.free
	t.pool.free = t
	done(res)
}

// FaultInjector perturbs transfers at the DMA front end. Implemented by
// fault.Injector; the interface keeps mem free of a fault dependency.
type FaultInjector interface {
	// Transfer returns an extra front-end stall and whether the payload
	// arrives corrupted for a transfer of n bytes.
	Transfer(n int64) (stall sim.Time, corrupt bool)
}

// StartTransferFI is StartTransfer with optional fault injection: the
// injected stall extends the front-end setup latency (so downstream claim
// coalescing and pipelining see a plain, later-starting transfer), and a
// corruption verdict is delivered through TransferResult.Corrupt. A nil
// injector is exactly StartTransfer.
func StartTransferFI(k *sim.Kernel, path []Server, n int64, setup sim.Time, fi FaultInjector, done func(TransferResult)) {
	if fi != nil {
		stall, corrupt := fi.Transfer(n)
		setup += stall
		if corrupt {
			inner := done
			done = func(res TransferResult) {
				res.Corrupt = true
				inner(res)
			}
		}
	}
	StartTransfer(k, path, n, setup, done)
}

// StartTransfer moves n bytes through the ordered resource path, chunk by
// chunk, with store-and-forward pipelining: chunk i enters stage s+1 as soon
// as stage s finishes serving it, and chunk i+1 enters stage s at the same
// moment. setup is a fixed front-end latency (DMA programming, request
// routing) charged once before the first chunk. done receives the transfer's
// timing when the final chunk drains from the last stage.
//
// If every stage on the path is idle when the first chunk would issue, the
// chunk loop is replaced by an analytic claim (coalesce.go) that computes
// the identical pipeline schedule in closed form and fires a single
// completion event; the claim reverts to chunk-wise service the moment any
// other stream touches the path.
//
// A transfer over an empty path (pure SPAD-local access) completes after
// setup alone.
//
//relief:hotpath
func StartTransfer(k *sim.Kernel, path []Server, n int64, setup sim.Time, done func(TransferResult)) {
	t := getTransfer(k, len(path))
	t.path = path
	t.n = n
	t.nChunks = int((n + DefaultChunkBytes - 1) / DefaultChunkBytes)
	t.start = k.Now()
	t.done = done
	for s := range path {
		t.next[s] = 0
	}
	k.Schedule(setup, t.startFn)
}
