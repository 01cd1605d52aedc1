package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// TCP is a Transport over real sockets using length-prefixed binary frames.
// Request frame:  id(8) | kind(1)=0 | methodLen(2) | method | payloadLen(4) | payload
// Response frame: id(8) | kind(1)=1 | status(1) | bodyLen(4) | body
// Clients keep one multiplexed connection per remote address.
//
// A call allocates only what outlives it: the response body the caller
// receives. The server reads each request payload into a pooled frame and
// reuses it once the handler has returned and the response is written,
// and runs the request on its connection's parked handler goroutine when
// that one is idle (serverConn). Frame headers are read and written in
// the connections' buffers, method names are interned per connection,
// and pending calls are pooled records. A call bounded by a *Deadline is
// timed by its connection's one timer, so its Done is never called.
type TCP struct {
	mu    sync.Mutex
	conns map[string]*tcpClientConn
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
}

// NewTCP returns a TCP transport with a 2-second dial timeout.
func NewTCP() *TCP {
	return &TCP{conns: make(map[string]*tcpClientConn), DialTimeout: 2 * time.Second}
}

const (
	frameKindRequest  = 0
	frameKindResponse = 1
	respStatusOK      = 0
	respStatusError   = 1
	maxFramePayload   = 64 << 20

	requestHeaderLen  = 11 // id, kind, methodLen
	responseHeaderLen = 14 // id, kind, status, bodyLen
	payloadLenLen     = 4
	frameBufferSize   = 1 << 16
	// maxInternedMethods caps each connection's method table, so a peer
	// sending ever new names cannot grow it. Dirigent has a few dozen.
	maxInternedMethods = 64
)

var (
	errFrameKind     = errors.New("transport: unexpected frame kind")
	errFrameTooLarge = errors.New("transport: frame too large")
)

// Listen implements Transport.
func (t *TCP) Listen(addr string, h HandlerFunc) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	srv := &tcpListener{ln: ln, handler: h, done: make(chan struct{})}
	go srv.acceptLoop()
	return srv, nil
}

type tcpListener struct {
	ln      net.Listener
	handler HandlerFunc
	done    chan struct{}
	wg      sync.WaitGroup

	connMu sync.Mutex
	conns  map[*serverConn]struct{}
	closed bool
}

func (s *tcpListener) Addr() string { return s.ln.Addr().String() }

func (s *tcpListener) Close() error {
	close(s.done)
	err := s.ln.Close()
	// Sever accepted connections so per-connection goroutines blocked in
	// reads unblock; otherwise Close would wait on them forever.
	s.connMu.Lock()
	s.closed = true
	for c := range s.conns {
		c.conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *tcpListener) track(c *serverConn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[*serverConn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *tcpListener) untrack(c *serverConn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

func (s *tcpListener) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			return
		}
		c := &serverConn{
			s:       s,
			conn:    conn,
			w:       bufio.NewWriterSize(conn, frameBufferSize),
			handoff: make(chan tcpRequest, 1),
		}
		if !s.track(c) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(c)
			c.serve()
		}()
	}
}

// responseWriteTimeout bounds a response write: a client that sends and
// never reads loses its connection instead of holding the server's
// handlers. A variable so that tests can shorten it.
var responseWriteTimeout = 10 * time.Second

// serverConn is the server side of one accepted connection. Its reader
// hands each request to a handler goroutine, so a handler that blocks
// never delays another request on the connection. At most one handler
// goroutine is parked idle per connection: a request that finds it parked
// is handed over through handoff, one that does not starts a goroutine,
// and a goroutine that has written its response parks if no other is
// parked and exits otherwise. A warm connection thus runs its requests on
// one goroutine whose stack has already grown.
type serverConn struct {
	s    *tcpListener
	conn net.Conn

	wmu     sync.Mutex
	w       *bufio.Writer
	writeBy time.Time // the connection's write deadline; zero before the first response

	// parked is set by a handler goroutine that parks and cleared by the
	// reader that hands it a request. Every request handed over follows a
	// park, so a send on handoff waits at most for a goroutine that has
	// parked to reach its receive. The reader closes handoff when the
	// connection ends, which ends a parked goroutine.
	parked  atomic.Bool
	handoff chan tcpRequest
}

// tcpRequest is one request frame on its way to a handler. payload is a
// pooled frame, given back once the response is written.
type tcpRequest struct {
	id      uint64
	method  string
	payload *[]byte
}

func (c *serverConn) serve() {
	defer close(c.handoff)
	defer c.conn.Close()
	r := bufio.NewReaderSize(c.conn, frameBufferSize)
	methods := make(methodTable)
	for {
		id, method, payload, err := readRequest(r, methods)
		if err != nil {
			return
		}
		req := tcpRequest{id: id, method: method, payload: payload}
		if c.parked.CompareAndSwap(true, false) {
			c.handoff <- req
			continue
		}
		c.s.wg.Add(1)
		go c.handle(req)
	}
}

// handle serves req and then, parked between them, whatever requests the
// reader hands it, until another goroutine holds the parking slot or the
// connection ends.
func (c *serverConn) handle(req tcpRequest) {
	defer c.s.wg.Done()
	for {
		c.respond(req)
		if !c.parked.CompareAndSwap(false, true) {
			return
		}
		var ok bool
		if req, ok = <-c.handoff; !ok {
			return
		}
	}
}

// respond runs the handler on req and writes its response. The payload
// goes back to the pool only once the response is written: the response
// may alias it.
func (c *serverConn) respond(req tcpRequest) {
	body, herr := c.s.handler(req.method, *req.payload)
	status := byte(respStatusOK)
	if herr != nil {
		status = respStatusError
		body = []byte(herr.Error())
	}
	c.wmu.Lock()
	err := c.extendWriteDeadline()
	if err == nil {
		err = writeResponse(c.w, req.id, status, body)
	}
	c.wmu.Unlock()
	if err != nil {
		c.conn.Close()
	}
	PutFrame(req.payload)
}

// extendWriteDeadline moves the connection's write deadline to
// responseWriteTimeout from now once less than half of that is left, so
// a busy connection sets it about once per half timeout, not per
// response. The check reads only the monotonic clock, which writeBy
// carries once set. Callers hold wmu.
func (c *serverConn) extendWriteDeadline() error {
	if time.Until(c.writeBy) >= responseWriteTimeout/2 {
		return nil
	}
	c.writeBy = time.Now().Add(responseWriteTimeout)
	return c.conn.SetWriteDeadline(c.writeBy)
}

// methodTable interns one connection's method names, so a request for a
// method seen before decodes its name without allocating.
type methodTable map[string]string

func (m methodTable) intern(b []byte) string {
	if s, ok := m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(m) < maxInternedMethods {
		m[s] = s
	}
	return s
}

// readRequest reads one request frame. The payload is read into a pooled
// frame, which the caller gives back with PutFrame; nothing else is
// allocated unless the method name is new or the payload outgrows the
// frame. One Peek sees everything before the payload, so a frame too
// large is refused before anything is allocated for it; a method name too
// long for that (over 65 521 bytes) fails the Peek, and the frame is
// refused too.
func readRequest(r *bufio.Reader, methods methodTable) (id uint64, method string, payload *[]byte, err error) {
	h, err := r.Peek(requestHeaderLen)
	if err != nil {
		return 0, "", nil, err
	}
	if h[8] != frameKindRequest {
		return 0, "", nil, errFrameKind
	}
	mlen := int(binary.LittleEndian.Uint16(h[9:11]))
	prefix, err := r.Peek(requestHeaderLen + mlen + payloadLenLen)
	if err != nil {
		return 0, "", nil, err
	}
	plen := binary.LittleEndian.Uint32(prefix[requestHeaderLen+mlen:])
	if plen > maxFramePayload {
		return 0, "", nil, errFrameTooLarge
	}
	id = binary.LittleEndian.Uint64(prefix)
	method = methods.intern(prefix[requestHeaderLen : requestHeaderLen+mlen])
	r.Discard(len(prefix)) // cannot fail: the bytes were peeked
	payload = GetFrame()
	if cap(*payload) < int(plen) {
		*payload = make([]byte, plen)
	}
	*payload = (*payload)[:plen]
	if _, err = io.ReadFull(r, *payload); err != nil {
		PutFrame(payload)
		return 0, "", nil, err
	}
	return id, method, payload, nil
}

// headerSpace returns w's free space, at least n bytes of it, for a frame
// header to be appended into and passed straight to w.Write.
func headerSpace(w *bufio.Writer, n int) ([]byte, error) {
	if w.Available() < n {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return w.AvailableBuffer(), nil
}

// writeRequest writes and flushes one request frame.
func writeRequest(w *bufio.Writer, id uint64, method string, payload []byte) error {
	b, err := headerSpace(w, requestHeaderLen)
	if err != nil {
		return err
	}
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, frameKindRequest)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(method)))
	w.Write(b)
	w.WriteString(method)
	if b, err = headerSpace(w, payloadLenLen); err != nil {
		return err
	}
	w.Write(binary.LittleEndian.AppendUint32(b, uint32(len(payload))))
	w.Write(payload)
	return w.Flush() // reports any error the writes above left in w
}

// readResponse reads one response frame; the body is the only allocation.
func readResponse(r *bufio.Reader) (id uint64, status byte, body []byte, err error) {
	h, err := r.Peek(responseHeaderLen)
	if err != nil {
		return 0, 0, nil, err
	}
	if h[8] != frameKindResponse {
		return 0, 0, nil, errFrameKind
	}
	blen := binary.LittleEndian.Uint32(h[10:14])
	if blen > maxFramePayload {
		return 0, 0, nil, errFrameTooLarge
	}
	id, status = binary.LittleEndian.Uint64(h), h[9]
	r.Discard(responseHeaderLen)
	body = make([]byte, blen)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	return id, status, body, nil
}

// writeResponse writes and flushes one response frame.
func writeResponse(w *bufio.Writer, id uint64, status byte, body []byte) error {
	b, err := headerSpace(w, responseHeaderLen)
	if err != nil {
		return err
	}
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, frameKindResponse, status)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	w.Write(b)
	w.Write(body)
	return w.Flush()
}

type tcpClientConn struct {
	conn net.Conn

	wmu     sync.Mutex
	w       *bufio.Writer
	writeBy time.Time // the connection's write deadline; zero for none

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*tcpCall
	closed  bool
	// timer expires the pending calls bounded by a *Deadline. It is armed
	// for timerAt, no later than the earliest of their deadlines, and is
	// built by the first such call.
	timer   *time.Timer
	timerAt time.Time // zero when not armed
}

// tcpCall is a call's entry in its connection's pending table. Whoever
// removes it from the table, under the connection's mu, completes it: it
// sets the result and sends on done, which has room for that one send.
// A record goes back to callPool only after its caller has received on
// done. One whose caller stopped waiting is dropped, so a late completion
// cannot reach the next call.
type tcpCall struct {
	done     chan struct{}
	deadline time.Time // a *Deadline's expiry; zero for any other context

	status byte
	body   []byte
	err    error
}

var callPool = sync.Pool{New: func() any { return &tcpCall{done: make(chan struct{}, 1)} }}

// Call implements Transport.
func (t *TCP) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	cc, err := t.getConn(addr)
	if err != nil {
		return nil, err
	}
	call := callPool.Get().(*tcpCall)
	writeBy, _ := ctx.Deadline()
	d, timed := ctx.(*Deadline)
	var parentDone <-chan struct{} // nil unless d's parent can be canceled
	if timed {
		call.deadline = writeBy
		parentDone = d.parent.Done()
	}
	id, err := cc.send(call, method, payload, writeBy)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		t.dropConn(addr, cc)
		if !errors.Is(err, ErrUnreachable) {
			// A write failure means the connection died under the
			// request — connection-level, so callers (front end, data
			// plane, cpclient) fail over instead of surfacing it. A
			// write that outlasts the call's deadline is one too: the
			// peer is not reading.
			err = fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
		}
		return nil, err
	}
	if timed {
		// The connection's timer completes it at the deadline; a parent
		// that can be canceled may end it sooner.
		select {
		case <-call.done:
		case <-parentDone:
			cc.abandon(id)
			return nil, ctx.Err()
		}
	} else {
		select {
		case <-call.done:
		case <-ctx.Done():
			cc.abandon(id)
			return nil, ctx.Err()
		}
	}
	status, body, err := call.status, call.body, call.err
	*call = tcpCall{done: call.done}
	callPool.Put(call)
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.dropConn(addr, cc)
		}
		return nil, err
	}
	if status == respStatusError {
		return nil, &RemoteError{Msg: string(body)}
	}
	return body, nil
}

func (t *TCP) getConn(addr string) (*tcpClientConn, error) {
	t.mu.Lock()
	cc, ok := t.conns[addr]
	t.mu.Unlock()
	if ok {
		return cc, nil
	}
	conn, err := net.DialTimeout("tcp", addr, t.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	cc = &tcpClientConn{
		conn:    conn,
		w:       bufio.NewWriterSize(conn, frameBufferSize),
		pending: make(map[uint64]*tcpCall),
	}
	t.mu.Lock()
	if existing, ok := t.conns[addr]; ok {
		t.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	t.conns[addr] = cc
	t.mu.Unlock()
	go cc.readLoop()
	return cc, nil
}

func (t *TCP) dropConn(addr string, cc *tcpClientConn) {
	t.mu.Lock()
	if cur, ok := t.conns[addr]; ok && cur == cc {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
	cc.close(ErrUnreachable)
}

// send enters call in the pending table and writes its request, with the
// connection's write deadline at writeBy (zero: none). A call whose
// deadline passes before its frame is on the wire returns
// DeadlineExceeded and leaves the connection as it was.
func (cc *tcpClientConn) send(call *tcpCall, method string, payload []byte, writeBy time.Time) (uint64, error) {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return 0, ErrUnreachable
	}
	cc.nextID++
	id := cc.nextID
	cc.pending[id] = call
	if !call.deadline.IsZero() && (cc.timerAt.IsZero() || call.deadline.Before(cc.timerAt)) {
		cc.armLocked(call.deadline)
	}
	cc.mu.Unlock()

	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	// time.Until reads only the monotonic clock when writeBy carries a
	// reading of it, as a *Deadline's and a context.WithTimeout's do.
	if !writeBy.IsZero() && time.Until(writeBy) <= 0 {
		cc.abandon(id)
		return 0, context.DeadlineExceeded
	}
	if !writeBy.Equal(cc.writeBy) {
		if err := cc.conn.SetWriteDeadline(writeBy); err != nil {
			cc.abandon(id)
			return 0, err
		}
		cc.writeBy = writeBy
	}
	if err := writeRequest(cc.w, id, method, payload); err != nil {
		cc.abandon(id)
		// A deadline that passed before any byte of the frame left the
		// buffer has cut nothing short: the frame is discarded and the
		// connection, which other calls share, kept. A frame that left
		// in part has broken the stream.
		if errors.Is(err, os.ErrDeadlineExceeded) && cc.w.Buffered() == requestHeaderLen+len(method)+payloadLenLen+len(payload) {
			cc.w.Reset(cc.conn)
			return 0, context.DeadlineExceeded
		}
		return 0, err
	}
	return id, nil
}

func (cc *tcpClientConn) abandon(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// armLocked sets the timer to fire at at.
func (cc *tcpClientConn) armLocked(at time.Time) {
	cc.timerAt = at
	if cc.timer == nil {
		cc.timer = time.AfterFunc(time.Until(at), cc.expire)
	} else {
		cc.timer.Reset(time.Until(at))
	}
}

// expire fails the pending calls whose deadline has passed with
// DeadlineExceeded and re-arms the timer for the earliest one left.
func (cc *tcpClientConn) expire() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		return
	}
	now := time.Now()
	var next time.Time
	for id, call := range cc.pending {
		switch {
		case call.deadline.IsZero(): // its caller selects on ctx.Done
		case !now.Before(call.deadline):
			delete(cc.pending, id)
			call.err = context.DeadlineExceeded
			call.done <- struct{}{} // never blocks: the one send done has room for
		case next.IsZero() || call.deadline.Before(next):
			next = call.deadline
		}
	}
	cc.timerAt = time.Time{}
	if !next.IsZero() {
		cc.armLocked(next)
	}
}

func (cc *tcpClientConn) readLoop() {
	r := bufio.NewReaderSize(cc.conn, frameBufferSize)
	for {
		id, status, body, err := readResponse(r)
		if err != nil {
			cc.close(err)
			return
		}
		cc.mu.Lock()
		call, ok := cc.pending[id]
		if ok {
			delete(cc.pending, id)
			call.status, call.body = status, body
			call.done <- struct{}{}
		}
		cc.mu.Unlock()
	}
}

func (cc *tcpClientConn) close(err error) {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return
	}
	cc.closed = true
	if cc.timer != nil {
		cc.timer.Stop()
	}
	err = fmt.Errorf("transport: connection closed: %w", errOrUnreachable(err))
	for id, call := range cc.pending {
		delete(cc.pending, id)
		call.err = err
		call.done <- struct{}{}
	}
	cc.mu.Unlock()
	cc.conn.Close()
}

// errOrUnreachable classifies the reason a client connection died for
// the requests stranded on it. Whatever severed the connection (EOF,
// reset, a protocol violation), the effect for the in-flight request is
// the same — the remote is unreachable mid-call — so the error unwraps
// to ErrUnreachable and callers route around the dead peer.
func errOrUnreachable(err error) error {
	if err == nil || errors.Is(err, ErrUnreachable) {
		return ErrUnreachable
	}
	return fmt.Errorf("%w: %v", ErrUnreachable, err)
}

// Close tears down all client connections.
func (t *TCP) Close() error {
	t.mu.Lock()
	conns := t.conns
	t.conns = map[string]*tcpClientConn{}
	t.mu.Unlock()
	for _, cc := range conns {
		cc.close(nil)
	}
	return nil
}
