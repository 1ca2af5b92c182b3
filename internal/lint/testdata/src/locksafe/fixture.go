// Package fixture exercises the locksafe analyzer: blocking operations and
// callback invocations while a sync mutex is held.
package fixture

import (
	"net"
	"sync"

	"toposhot/internal/wire"
)

type hub struct {
	mu   sync.Mutex
	subs []func(int)
	ch   chan int
	conn net.Conn
}

// publishLocked performs every forbidden operation under the lock.
func (h *hub) publishLocked(v int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ch <- v
	for _, cb := range h.subs {
		cb(v)
	}
	if _, err := h.conn.Write([]byte{1}); err != nil {
		return err
	}
	return wire.WriteMsg(h.conn, wire.Msg{Code: wire.CodeDisconnect})
}

// publish is the sanctioned shape: snapshot under the lock, operate outside.
func (h *hub) publish(v int) error {
	h.mu.Lock()
	subs := append([]func(int){}, h.subs...)
	h.mu.Unlock()
	h.ch <- v
	for _, cb := range subs {
		cb(v)
	}
	return wire.WriteMsg(h.conn, wire.Msg{Code: wire.CodeDisconnect})
}

// earlyUnlock releases on a branch; the operations after the branch are
// still under the lock and must be flagged, the ones inside are not.
func (h *hub) earlyUnlock(v int, empty bool) {
	h.mu.Lock()
	if empty {
		h.mu.Unlock()
		h.ch <- v
		return
	}
	h.ch <- v
	h.mu.Unlock()
}

type pair struct {
	a, b sync.Mutex
	rw   sync.RWMutex
}

// nested takes a second mutex while the first is held: flagged.
func (p *pair) nested() {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

// readUnderWrite takes a read lock under a different write lock: flagged.
func (p *pair) readUnderWrite() {
	p.a.Lock()
	defer p.a.Unlock()
	p.rw.RLock()
	p.rw.RUnlock()
}

// sequential re-locks after unlocking; one mutex at a time is the discipline.
func (p *pair) sequential() {
	p.a.Lock()
	p.a.Unlock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Lock()
	p.a.Unlock()
}

// branchUnlock releases on a branch before taking the second mutex there.
func (p *pair) branchUnlock(done bool) {
	p.a.Lock()
	if done {
		p.a.Unlock()
		p.b.Lock()
		p.b.Unlock()
		return
	}
	p.a.Unlock()
}
