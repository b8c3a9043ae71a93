package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection that sends pre-serialized
// requests and reads replies with net/http's response parser.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

const opTimeout = 30 * time.Second

// roundTrip sends req and appends the reply body to body. A transport
// error closes the connection; the next call redials.
func (c *conn) roundTrip(req, body []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, opTimeout)
		if err != nil {
			return 0, body, err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 16<<10)
	}
	_ = c.c.SetDeadline(time.Now().Add(opTimeout))
	if _, err := c.c.Write(req); err != nil {
		c.close()
		return 0, body, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, body, err
	}
	body, err = appendAll(body, resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, body, err
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c, c.br = nil, nil
	}
}

func appendAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		dst = slices.Grow(dst, 512)
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// rec is one completed request.
type rec struct {
	op     int32 // index into the client's op list
	status int16 // 0: transport error
	lat    int64 // round trip, ns
	off, n int32 // reply body within the client's arena (n is set even when the body is not kept)
}

// loopResult is what a closed loop observed, per client.
type loopResult struct {
	recs      [numClients][]rec
	arena     [numClients][]byte
	elapsed   time.Duration   // start until the last client stopped
	exhausted int             // clients that ran out of ops before the time was up
	next      [numClients]int // where each client's list continues
}

// loopConfig describes one closed-loop phase.
type loopConfig struct {
	lists [numClients][]op
	from  [numClients]int // first op of each list
	cycle bool            // wrap around the lists (otherwise stop at their end)
	limit time.Duration   // stop after this long (0: run the lists once)
	// minOps keeps a timed loop going past limit until the clients have
	// sent this many requests between them.
	minOps int
	// keepBodies stores query reply bodies for the oracle.
	keepBodies bool
	// every, when set, runs on client 0 between its requests at most once
	// per everyPeriod (the traced run samples /metrics this way).
	every       func(*conn)
	everyPeriod time.Duration
}

// closedLoop runs one client goroutine per list, each sending its next
// request only after the previous reply, and returns once all have stopped.
func closedLoop(ctx context.Context, addr string, cfg loopConfig) *loopResult {
	if cfg.limit > 0 {
		// Keep the benchmark's own garbage collector out of timed loops: it
		// would take CPU from the server it shares the machine with.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	res := &loopResult{}
	var wg sync.WaitGroup
	start := time.Now()
	ends := make([]time.Duration, numClients)
	exhausted := make([]bool, numClients)
	for c := 0; c < numClients; c++ {
		ops := cfg.lists[c]
		if len(ops) == 0 {
			continue
		}
		capacity := len(ops)
		if cfg.cycle {
			capacity = int(cfg.limit.Seconds()*float64(opsPerSecond)) + 1
		}
		recs := make([]rec, 0, capacity)
		var arena []byte
		if cfg.keepBodies {
			arena = make([]byte, 0, capacity*256)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := &conn{addr: addr}
			defer cn.close()
			lastEvery := start
			var scratch []byte
			i := cfg.from[c]
			for ; ctx.Err() == nil; i++ {
				now := time.Now()
				if cfg.limit > 0 && now.Sub(start) >= cfg.limit && len(recs)*numClients >= cfg.minOps {
					break
				}
				if i == len(ops) {
					if !cfg.cycle {
						exhausted[c] = cfg.limit > 0
						break
					}
					i = 0
				}
				if c == 0 && cfg.every != nil && now.Sub(lastEvery) >= cfg.everyPeriod {
					cfg.every(cn)
					lastEvery = time.Now()
				}
				o := &ops[i]
				keep := cfg.keepBodies && o.kind == opQuery
				var status int
				var err error
				off := len(arena)
				t0 := time.Now()
				if keep {
					status, arena, err = cn.roundTrip(o.req, arena)
				} else {
					status, scratch, err = cn.roundTrip(o.req, scratch[:0])
				}
				lat := time.Since(t0)
				r := rec{op: int32(i), status: int16(status), lat: int64(lat), off: int32(off)}
				if keep {
					r.n = int32(len(arena) - off)
				} else {
					r.n = int32(len(scratch))
				}
				if err != nil {
					r.status = 0
				}
				recs = append(recs, r)
			}
			ends[c] = time.Since(start)
			res.recs[c], res.arena[c], res.next[c] = recs, arena, i
		}()
	}
	wg.Wait()
	for c := range ends {
		res.elapsed = max(res.elapsed, ends[c])
		if exhausted[c] {
			res.exhausted++
		}
	}
	return res
}

// body returns a kept reply body.
func (l *loopResult) body(c int, r rec) []byte { return l.arena[c][r.off : r.off+r.n] }

func (l *loopResult) count() int {
	n := 0
	for _, rs := range l.recs {
		n += len(rs)
	}
	return n
}
