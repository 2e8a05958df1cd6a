package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ldv/internal/client"
	"ldv/internal/server"
)

// The benchmark reaches the server the way a deployment does, minus the
// kernel socket: each session is a net.Pipe whose server end is handed to
// server.HandleConn. The benchmark wraps both ends from outside: the client
// end counts bytes and wire frames, and in traced runs the server end
// timestamps the last request byte the server reads and the first response
// byte it writes. Each session has exactly one request in flight, so that
// interval is the request's server residence.

var clockBase = time.Now()

// now is monotonic nanoseconds since process start, the one clock every
// span and residence stamp uses.
func now() int64 { return int64(time.Since(clockBase)) }

// frameCounter counts bytes and wire frames (5-byte header: tag, then a
// big-endian uint32 payload length) in one direction of a stream.
type frameCounter struct {
	bytes, frames int64
	hdr           [5]byte
	hdrN          int
	remain        uint32
}

func (f *frameCounter) add(p []byte) {
	f.bytes += int64(len(p))
	for len(p) > 0 {
		if f.remain > 0 {
			k := len(p)
			if uint32(k) > f.remain {
				k = int(f.remain)
			}
			f.remain -= uint32(k)
			p = p[k:]
			continue
		}
		k := copy(f.hdr[f.hdrN:], p)
		f.hdrN += k
		p = p[k:]
		if f.hdrN == len(f.hdr) {
			f.frames++
			f.remain = binary.BigEndian.Uint32(f.hdr[1:])
			f.hdrN = 0
		}
	}
}

// pipeStats is one session's wire accounting. in/out are touched only by
// the client goroutine; the residence fields are written by the server
// goroutine and read by the client after the response arrives.
type pipeStats struct {
	in, out frameCounter

	residenceNS   atomic.Int64 // cumulative server residence
	residentStart atomic.Int64 // last residence interval, for its span
	residentEnd   atomic.Int64
}

type clientEnd struct {
	net.Conn
	st *pipeStats
}

func (c *clientEnd) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.in.add(p[:n])
	return n, err
}

func (c *clientEnd) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.st.out.add(p[:n])
	return n, err
}

// serverEnd times server residence: from the last read that returned
// request bytes to the first write of the response. Only the server's
// session goroutine calls Read and Write.
type serverEnd struct {
	net.Conn
	st       *pipeStats
	lastRead int64
	pending  bool
}

func (s *serverEnd) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	if n > 0 {
		s.lastRead = now()
		s.pending = true
	}
	return n, err
}

func (s *serverEnd) Write(p []byte) (int, error) {
	if s.pending {
		t := now()
		s.st.residentStart.Store(s.lastRead)
		s.st.residentEnd.Store(t)
		s.st.residenceNS.Add(t - s.lastRead)
		s.pending = false
	}
	return s.Conn.Write(p)
}

// session is one client connection to the in-process server.
type session struct {
	conn *client.Conn
	st   *pipeStats
}

// pipeDialer connects sessions to srv and tracks the server goroutines so
// the benchmark can wait for every one of them to end.
type pipeDialer struct {
	srv    *server.Server
	timed  bool // wrap the server end to time residence
	wg     sync.WaitGroup
	latest *pipeStats
}

func (d *pipeDialer) Connect(string) (net.Conn, error) {
	c, s := net.Pipe()
	st := &pipeStats{}
	var srvConn net.Conn = s
	if d.timed {
		srvConn = &serverEnd{Conn: s, st: st}
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.srv.HandleConn(srvConn)
	}()
	d.latest = st
	return &clientEnd{Conn: c, st: st}, nil
}

// dial opens one session with client defaults.
func (d *pipeDialer) dial(proc string) (*session, error) {
	conn, err := client.Dial(d, "pipe", client.Options{Proc: proc})
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", proc, err)
	}
	return &session{conn: conn, st: d.latest}, nil
}

// closeAll closes the sessions and waits until their server goroutines end.
func (d *pipeDialer) closeAll(sessions []*session) {
	for _, s := range sessions {
		if s != nil {
			_ = s.conn.Close() // the server side ends on EOF either way
		}
	}
	d.wg.Wait()
}
