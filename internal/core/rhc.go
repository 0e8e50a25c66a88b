package core

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hypertap/internal/telemetry"
)

// Remote Health Checker (RHC): the paper's answer to "who monitors the
// monitor". The Event Multiplexer samples the event stream and forwards
// heartbeats to an RHC server on a separate machine; if heartbeats stop
// arriving, the monitoring stack itself (hypervisor, EF, EM) is presumed
// dead or wedged and an alert is raised.
//
// The reproduction runs the RHC over real TCP (stdlib net), typically on
// loopback in tests; staleness is judged in wall-clock time because the RHC
// exists precisely for the case where the monitored stack — and with it
// virtual time — has stopped.

// Heartbeat is one sampled-event notification.
type Heartbeat struct {
	// VM names the monitored VM.
	VM string
	// Seq is the exit sequence number of the sampled event.
	Seq uint64
	// VTime is the virtual timestamp of the sampled event.
	VTime time.Duration
	// Received is the wall-clock arrival time at the RHC.
	Received time.Time
}

// RHCAlert reports a liveness violation.
type RHCAlert struct {
	// VM names the silent VM ("" if nothing was ever received).
	VM string
	// Silence is how long the RHC went without a heartbeat.
	Silence time.Duration
	// At is the wall-clock alert time.
	At time.Time
}

// RHCServer receives heartbeats and raises alerts on silence.
type RHCServer struct {
	ln        net.Listener
	threshold time.Duration

	mu       sync.Mutex
	last     map[string]time.Time
	lastBeat map[string]Heartbeat
	received uint64
	closed   bool
	tel      *rhcTelemetry
	// beatArrived (on mu) wakes WaitHeartbeat parkers on every receive and
	// on Close.
	beatArrived sync.Cond

	alerts chan RHCAlert
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewRHCServer starts an RHC listening on addr (e.g., "127.0.0.1:0").
// threshold is the maximum tolerated heartbeat silence.
func NewRHCServer(addr string, threshold time.Duration) (*RHCServer, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("core: RHC threshold must be positive, got %v", threshold)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("core: RHC listen: %w", err)
	}
	s := &RHCServer{
		ln:        ln,
		threshold: threshold,
		last:      make(map[string]time.Time),
		lastBeat:  make(map[string]Heartbeat),
		alerts:    make(chan RHCAlert, 16),
		done:      make(chan struct{}),
	}
	s.beatArrived.L = &s.mu
	s.wg.Add(2)
	go s.acceptLoop()
	go s.watchdog()
	return s, nil
}

// rhcTelemetry is the RHC's instrument set.
type rhcTelemetry struct {
	heartbeats *telemetry.Counter
	missed     *telemetry.Counter
	age        *telemetry.Gauge
}

// EnableTelemetry registers the RHC's self-monitoring instruments on reg:
// hypertap_rhc_heartbeats_total, hypertap_rhc_missed_beats_total (one per
// raised silence alert) and hypertap_rhc_heartbeat_age_seconds (the oldest
// VM's heartbeat age, refreshed by the watchdog).
func (s *RHCServer) EnableTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = &rhcTelemetry{
		heartbeats: reg.Counter("hypertap_rhc_heartbeats_total"),
		missed:     reg.Counter("hypertap_rhc_missed_beats_total"),
		age:        reg.Gauge("hypertap_rhc_heartbeat_age_seconds"),
	}
}

// Health implements the /healthz contract (telemetry/httpexport.Health): it
// returns an error while any monitored VM's heartbeats have been silent for
// longer than the alert threshold. The error names every stalled VM, oldest
// heartbeat first and ties by name, so the same stalls always read the same.
// A VM that never heartbeat is not reported — the RHC can only miss what it
// once received.
func (s *RHCServer) Health() error {
	return s.health(time.Now()) //hypertap:allow wallclock the RHC is the real-time side of the system: heartbeat staleness is judged in wall time
}

// health is Health judged at now.
func (s *RHCServer) health(now time.Time) error {
	s.mu.Lock()
	var stalled []Heartbeat
	for _, hb := range s.lastBeat {
		if now.Sub(hb.Received) > s.threshold {
			stalled = append(stalled, hb)
		}
	}
	s.mu.Unlock()
	if len(stalled) == 0 {
		return nil
	}
	sort.Slice(stalled, func(i, j int) bool {
		a, b := stalled[i], stalled[j]
		if !a.Received.Equal(b.Received) {
			return a.Received.Before(b.Received)
		}
		return a.VM < b.VM
	})
	var msg strings.Builder
	msg.WriteString("rhc: heartbeats stalled:")
	for i, hb := range stalled {
		if i > 0 {
			msg.WriteByte(',')
		}
		fmt.Fprintf(&msg, " %s for %v", hb.VM, now.Sub(hb.Received).Round(time.Millisecond))
	}
	return errors.New(msg.String())
}

// Addr returns the server's listen address for clients to dial.
func (s *RHCServer) Addr() string { return s.ln.Addr().String() }

// Alerts returns the alert channel.
func (s *RHCServer) Alerts() <-chan RHCAlert { return s.alerts }

// Received returns the number of heartbeats received.
func (s *RHCServer) Received() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// LastHeartbeat returns the most recent heartbeat for a VM.
func (s *RHCServer) LastHeartbeat(vm string) (Heartbeat, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hb, ok := s.lastBeat[vm]
	return hb, ok
}

// WaitHeartbeat blocks until at least one heartbeat from vm has been
// received (returning it), the timeout elapses, or the server closes. It
// replaces the sleep-poll loops integration tests used to need: waiters
// park on a condition variable the receive path broadcasts, so arrival is
// observed immediately instead of at the next poll tick.
func (s *RHCServer) WaitHeartbeat(vm string, timeout time.Duration) (Heartbeat, bool) {
	deadline := time.Now().Add(timeout) //hypertap:allow wallclock RHC liveness waits are judged in wall time like the staleness they guard
	// The timer only wakes the waiters so the deadline check below runs;
	// broadcasting under the lock keeps the Cond's invariant.
	timer := time.AfterFunc(timeout, func() { //hypertap:allow wallclock wall-time wake-up for the wait deadline
		s.mu.Lock()
		s.beatArrived.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if hb, ok := s.lastBeat[vm]; ok {
			return hb, true
		}
		if s.closed || !time.Now().Before(deadline) { //hypertap:allow wallclock RHC liveness waits are judged in wall time like the staleness they guard
			return Heartbeat{}, false
		}
		s.beatArrived.Wait()
	}
}

// Close stops the server.
func (s *RHCServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.beatArrived.Broadcast()
	s.mu.Unlock()
	close(s.done)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *RHCServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *RHCServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() { _ = conn.Close() }()
	// Unblock the read when the server shuts down.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-s.done:
			_ = conn.SetReadDeadline(time.Now()) //hypertap:allow wallclock real TCP deadline to unblock the reader on shutdown
		case <-stop:
		}
	}()

	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		hb, err := parseHeartbeat(sc.Text())
		if err != nil {
			continue // tolerate malformed lines
		}
		hb.Received = time.Now() //hypertap:allow wallclock heartbeat receive timestamps are real network-arrival times
		s.mu.Lock()
		s.last[hb.VM] = hb.Received
		s.lastBeat[hb.VM] = hb
		s.received++
		if s.tel != nil {
			s.tel.heartbeats.Inc()
			s.tel.age.Set(0)
		}
		s.beatArrived.Broadcast()
		s.mu.Unlock()
	}
}

func (s *RHCServer) watchdog() {
	defer s.wg.Done()
	interval := s.threshold / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval) //hypertap:allow wallclock the watchdog polls heartbeat liveness in wall time over real TCP
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case now := <-ticker.C:
			s.mu.Lock()
			if s.tel != nil {
				// Heartbeat age is judged against lastBeat, which —
				// unlike the re-armed alert clock — records true
				// arrival times.
				var oldest time.Duration
				for _, hb := range s.lastBeat {
					if age := now.Sub(hb.Received); age > oldest {
						oldest = age
					}
				}
				s.tel.age.Set(oldest.Seconds())
			}
			for vm, last := range s.last {
				if silence := now.Sub(last); silence > s.threshold {
					// Count the miss before raising the alert, so a reader
					// the alert wakes already sees it counted.
					if s.tel != nil {
						s.tel.missed.Inc()
					}
					alert := RHCAlert{VM: vm, Silence: silence, At: now}
					select {
					case s.alerts <- alert:
					default:
					}
					// Re-arm rather than flooding.
					s.last[vm] = now
				}
			}
			s.mu.Unlock()
		}
	}
}

// heartbeat wire format: "vm seq vtime_ns\n".
func parseHeartbeat(line string) (Heartbeat, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return Heartbeat{}, fmt.Errorf("core: malformed heartbeat %q", line)
	}
	seq, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return Heartbeat{}, fmt.Errorf("core: bad heartbeat seq: %w", err)
	}
	ns, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return Heartbeat{}, fmt.Errorf("core: bad heartbeat vtime: %w", err)
	}
	return Heartbeat{VM: fields[0], Seq: seq, VTime: time.Duration(ns)}, nil
}

// RHCClient forwards sampled events from the EM to an RHC server. One
// client per host suffices for a whole fleet: SendNamed stamps each
// heartbeat with the producing VM's name, so a single TCP connection
// carries per-VM liveness and the server still alerts on exactly the VM
// that went silent.
type RHCClient struct {
	vm   string
	conn net.Conn
	mu   sync.Mutex
	sent uint64
}

// DialRHC connects a named VM's (or, for a host fleet, the host's) sampler
// to an RHC server.
func DialRHC(vm, addr string) (*RHCClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("core: RHC dial %s: %w", addr, err)
	}
	return &RHCClient{vm: vm, conn: conn}, nil
}

// Send forwards one sampled event as a heartbeat under the dial-time name;
// best-effort (errors are swallowed so the logging path never blocks on the
// network, matching the non-blocking forwarding design).
func (c *RHCClient) Send(ev *Event) { c.SendNamed(c.vm, ev) }

// SendNamed forwards one sampled event as a heartbeat attributed to vm —
// the host fleet path, where the shared EM's sampler resolves the event's
// VMID to a name and every VM beats through the host's one connection.
func (c *RHCClient) SendNamed(vm string, ev *Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)) //hypertap:allow wallclock real TCP write deadline keeps the logging path non-blocking
	//hypertap:allow lockdiscipline heartbeat write is bounded by the 100ms deadline above and this lock guards only the client's own conn/sent — nothing on the event hot path contends for it
	if _, err := fmt.Fprintf(c.conn, "%s %d %d\n", vm, ev.Seq, int64(ev.Time)); err == nil {
		c.sent++
	}
}

// Sent returns the number of successfully written heartbeats.
func (c *RHCClient) Sent() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// Close closes the connection.
func (c *RHCClient) Close() error { return c.conn.Close() }
