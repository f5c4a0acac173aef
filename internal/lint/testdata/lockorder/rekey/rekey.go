// Fixture: the key server's two lock classes under their real names,
// so lockRanks applies (rekey.Server.mu ranks below
// rekey.Server.treeMu). Rekey's shape -- mu, then treeMu through a
// call -- is silent; taking mu while treeMu is held, directly or
// through a call, is a rank finding even though the two orders
// together would also form a cycle.
package rekey

import "sync"

type Server struct {
	mu     sync.Mutex
	treeMu sync.Mutex
	seq    int
	joins  []int
}

// Rekey nests upward through a call, as the real Server does.
func (s *Server) Rekey() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.processPending()
	s.seq++
}

func (s *Server) processPending() {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	s.joins = nil
}

// Snapshot nests upward directly.
func (s *Server) Snapshot() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.treeMu.Lock()
	n := len(s.joins)
	s.treeMu.Unlock()
	return s.seq, n
}

// Sequential releases mu before taking treeMu: never nested.
func (s *Server) Sequential() int {
	s.mu.Lock()
	seq := s.seq
	s.mu.Unlock()
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	return seq + len(s.joins)
}

// QueueJoin inverts the order directly.
func (s *Server) QueueJoin(m int) {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	s.joins = append(s.joins, m)
	s.mu.Lock() // want "acquires rekey.Server.mu while holding rekey.Server.treeMu, against the lock order"
	s.seq++
	s.mu.Unlock()
}

// QueueLeave inverts it through a call.
func (s *Server) QueueLeave(m int) {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	s.joins = append(s.joins, -m)
	s.bumpSeq() // want "acquires rekey.Server.mu while holding rekey.Server.treeMu \\(via call to bumpSeq\\), against the lock order"
}

func (s *Server) bumpSeq() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
}

// Merge nests two instances of one class: equal ranks do not go up.
func (s *Server) Merge(o *Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o.mu.Lock() // want "acquires rekey.Server.mu while holding rekey.Server.mu, against the lock order"
	s.seq += o.seq
	o.mu.Unlock()
}
