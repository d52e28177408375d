// Package kvstore implements the remote feature store used by the lookup
// benchmarks: an in-process TCP key-value server and its wire protocol (the
// client is internal/store). It substitutes for the Redis instance in the
// paper's experimental setup (section 6.1). A configurable per-request
// latency models the datacenter round trip; server and client both count
// MGET requests, the metric of paper Table 2.
//
// Protocol (binary, little-endian):
//
//	request:  'M' | uint32 n | n x int64 keys
//	response: uint32 n | n x (uint32 dim | dim x float64), dim==0xFFFFFFFF => missing
package kvstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Server is a single-table remote feature store.
type Server struct {
	dim     int
	latency time.Duration

	mu   sync.RWMutex
	rows map[int64][]float64

	latMu sync.RWMutex
	latFn func() time.Duration

	ln        net.Listener
	requests  atomic.Int64
	dropConns atomic.Int64
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// NewServer creates a server holding feature vectors of width dim that
// sleeps for latency before answering each request, emulating a remote
// round trip. latency may be zero for tests.
func NewServer(dim int, latency time.Duration) *Server {
	return &Server{dim: dim, latency: latency, rows: make(map[int64][]float64)}
}

// Load bulk-inserts rows into the table.
func (s *Server) Load(rows map[int64][]float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range rows {
		if len(v) != s.dim {
			return fmt.Errorf("kvstore: Load: key %d has %d features, want %d", k, len(v), s.dim)
		}
		s.rows[k] = v
	}
	return nil
}

// Dim returns the feature width.
func (s *Server) Dim() int { return s.dim }

// SetLatencyFunc replaces the fixed per-request latency with a model called
// once per MGET, letting tests inject tail latency (for example, every Nth
// request slow). A nil fn restores the fixed latency from NewServer.
func (s *Server) SetLatencyFunc(fn func() time.Duration) {
	s.latMu.Lock()
	s.latFn = fn
	s.latMu.Unlock()
}

// DropNextConns makes the server close the next n accepted connections
// before reading a single byte, simulating transient network failures for
// retry tests. The listener itself stays up.
func (s *Server) DropNextConns(n int) { s.dropConns.Store(int64(n)) }

// TailLatency builds a latency model for SetLatencyFunc that answers every
// Nth request in slow and the rest in base — deterministic tail injection
// for chaos scenarios and hedging tests. every <= 1 makes every request
// slow; the returned func is safe for concurrent use.
func TailLatency(every int, base, slow time.Duration) func() time.Duration {
	if every <= 1 {
		return func() time.Duration { return slow }
	}
	var n atomic.Int64
	return func() time.Duration {
		if n.Add(1)%int64(every) == 0 {
			return slow
		}
		return base
	}
}

func (s *Server) requestLatency() time.Duration {
	s.latMu.RLock()
	fn := s.latFn
	s.latMu.RUnlock()
	if fn != nil {
		return fn()
	}
	return s.latency
}

// Requests returns the number of MGET requests served (each batched MGET
// counts as one remote request, like one Redis pipeline round trip).
func (s *Server) Requests() int64 { return s.requests.Load() }

// Start begins listening on 127.0.0.1 (ephemeral port) and serving
// connections. It returns the server's address.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("kvstore: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener and waits for connection handlers to finish.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	conns := make(map[net.Conn]bool)
	var mu sync.Mutex
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			mu.Lock()
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
			return // listener closed
		}
		if s.dropConns.Load() > 0 && s.dropConns.Add(-1) >= 0 {
			conn.Close()
			continue
		}
		mu.Lock()
		conns[conn] = true
		mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	hdr := make([]byte, 5)
	keyBuf := make([]byte, 0, 1024)
	out := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		if hdr[0] == 'D' {
			// Dim probe: answer the table width so clients can validate
			// schema at bind time instead of failing on the first lookup.
			out = out[:0]
			out = binary.LittleEndian.AppendUint32(out, uint32(s.dim))
			if _, err := conn.Write(out); err != nil {
				return
			}
			continue
		}
		if hdr[0] != 'M' {
			return // protocol error: drop connection
		}
		n := binary.LittleEndian.Uint32(hdr[1:])
		if n > maxBatch {
			return
		}
		need := int(n) * 8
		if cap(keyBuf) < need {
			keyBuf = make([]byte, need)
		}
		keyBuf = keyBuf[:need]
		if _, err := io.ReadFull(conn, keyBuf); err != nil {
			return
		}
		if d := s.requestLatency(); d > 0 {
			time.Sleep(d)
		}
		s.requests.Add(1)

		out = out[:0]
		out = binary.LittleEndian.AppendUint32(out, n)
		s.mu.RLock()
		for i := 0; i < int(n); i++ {
			key := int64(binary.LittleEndian.Uint64(keyBuf[i*8:]))
			row, ok := s.rows[key]
			if !ok {
				out = binary.LittleEndian.AppendUint32(out, missingDim)
				continue
			}
			out = binary.LittleEndian.AppendUint32(out, uint32(len(row)))
			for _, v := range row {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		}
		s.mu.RUnlock()
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}
