package noc

import (
	"fmt"

	"smarco/internal/fault"
)

// Transient link faults (see internal/fault): when an injector is
// installed, every link traversal rolls a deterministic hash. A faulted
// traversal either corrupts the packet (the receiver's per-flit checksum
// bit catches it and NAKs) or drops it silently (the sender's timeout
// catches it). Either way the sending router keeps the packet in a retry
// queue and retransmits after the detection latency plus exponential
// backoff, up to the injector's retransmission budget — after which the
// packet is abandoned as lost (the progress watchdog then reports the
// resulting wedge). Retransmissions ride outside the cycle's fresh-traffic
// lane budget, modelling a dedicated replay path.
//
// Fault decisions hash (router key, cycle, private traversal counter), all
// of which are identical at every engine partition count, so
// fault histories are bit-reproducible.

// linkRetry is one packet awaiting retransmission.
type linkRetry struct {
	pkt      *Packet
	dir      int
	due      uint64
	attempts int
}

// linkFaultState is the per-router fault-injection state shared by ring and
// mesh routers.
type linkFaultState struct {
	inj      *fault.Injector
	faultSeq uint64
	retry    []linkRetry
}

// decide rolls one traversal; when it faults, the packet is queued for
// retransmission and decide reports true (the caller treats the traversal
// as performed — the loss is discovered later by checksum or timeout).
func (s *linkFaultState) decide(now uint64, key uint64, dir int, p *Packet) bool {
	if s.inj == nil {
		return false
	}
	s.faultSeq++
	faulted, dropped := s.inj.LinkFault(key, now, s.faultSeq)
	if !faulted {
		return false
	}
	s.schedule(now, dir, p, 0, dropped)
	return true
}

// schedule queues a retransmission, or abandons the packet once the
// attempt budget is spent.
func (s *linkFaultState) schedule(now uint64, dir int, p *Packet, attempts int, dropped bool) {
	if attempts >= s.inj.MaxRetransmit() {
		s.inj.Stats.PacketsLost.Add(1)
		return
	}
	s.retry = append(s.retry, linkRetry{
		pkt:      p,
		dir:      dir,
		due:      now + fault.RetryDelay(attempts, dropped),
		attempts: attempts + 1,
	})
}

// tickRetries attempts every due retransmission. send performs the actual
// transmission and reports whether the downstream buffer accepted it; a
// retransmission may itself fault and re-enter the queue.
func (s *linkFaultState) tickRetries(now uint64, key uint64,
	canAccept func(dir int) bool, send func(dir int, p *Packet)) {
	if len(s.retry) == 0 {
		return
	}
	kept := s.retry[:0]
	for _, e := range s.retry {
		if e.due > now {
			kept = append(kept, e)
			continue
		}
		if !canAccept(e.dir) {
			kept = append(kept, e)
			continue
		}
		s.inj.Stats.Retransmits.Add(1)
		s.faultSeq++
		if faulted, dropped := s.inj.LinkFault(key, now, s.faultSeq); faulted {
			if e.attempts >= s.inj.MaxRetransmit() {
				s.inj.Stats.PacketsLost.Add(1)
				continue
			}
			e.due = now + fault.RetryDelay(e.attempts, dropped)
			e.attempts++
			kept = append(kept, e)
			continue
		}
		send(e.dir, e.pkt)
	}
	s.retry = kept
}

// pendingRetries returns queued retransmissions (for health reporting).
func (s *linkFaultState) pendingRetries() int { return len(s.retry) }

// nextDue returns the earliest retransmission deadline. Only meaningful
// when pendingRetries() > 0.
func (s *linkFaultState) nextDue() uint64 {
	min := ^uint64(0)
	for _, e := range s.retry {
		if e.due < min {
			min = e.due
		}
	}
	return min
}

// healthString formats a router health diagnostic, "" when nothing pends.
func routerHealth(queued, retries int, inflight int) string {
	if queued == 0 && retries == 0 && inflight == 0 {
		return ""
	}
	return fmt.Sprintf("%d queued, %d awaiting retransmit, %d in flight", queued, retries, inflight)
}
