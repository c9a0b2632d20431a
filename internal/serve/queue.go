package serve

import (
	"errors"
	"sync"
)

// ErrQueueFull is returned by Enqueue when the bounded queue is at
// capacity; clients should back off and retry (HTTP 429).
var ErrQueueFull = errors.New("serve: request queue is full")

// ErrQueueClosed is returned by Enqueue after Close; the server is
// draining and accepts no new work (HTTP 503).
var ErrQueueClosed = errors.New("serve: request queue is closed")

// Queue is the bounded FIFO of pending forget requests. One worker
// consumes it; any number of HTTP handlers produce into it. Wait
// blocks until an item arrives; TakeAll drains everything pending —
// the coalescing primitive. After Close the queue rejects producers
// but keeps handing out the backlog, so a graceful drain is simply
// "Close, then consume until Wait reports done".
//
// The queue also indexes every ticket it ever accepted, under the same
// mutex, so accepting a ticket and registering it are one step. Tickets
// are never dropped from the index: the audit surface (/v1/requests)
// covers the server's whole life.
type Queue struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	items    []*Ticket
	capacity int
	closed   bool

	tickets map[uint64]*Ticket
	order   []*Ticket // accepted tickets, in submission order
}

// NewQueue returns a queue bounded at capacity items (minimum 1).
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{capacity: capacity, tickets: make(map[uint64]*Ticket)}
	q.nonEmpty = sync.NewCond(&q.mu)
	return q
}

// Enqueue appends a ticket and indexes it, or reports why it cannot.
func (q *Queue) Enqueue(t *Ticket) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if len(q.items) >= q.capacity {
		return ErrQueueFull
	}
	q.items = append(q.items, t)
	q.tickets[t.ID] = t
	q.order = append(q.order, t)
	q.nonEmpty.Signal()
	return nil
}

// lookup returns the accepted ticket with the given ID.
func (q *Queue) lookup(id uint64) (*Ticket, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tickets[id]
	return t, ok
}

// accepted returns every accepted ticket, in submission order.
func (q *Queue) accepted() []*Ticket {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]*Ticket(nil), q.order...)
}

// Wait blocks until an item is available and returns it, or returns
// ok=false once the queue is closed and fully drained.
func (q *Queue) Wait() (t *Ticket, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	t = q.items[0]
	q.items = q.items[1:]
	return t, true
}

// TakeAll removes and returns every pending item without blocking.
func (q *Queue) TakeAll() []*Ticket {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return nil
	}
	out := q.items
	q.items = nil
	return out
}

// Len returns the number of pending items.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close stops accepting new items and wakes the consumer so it can
// drain the backlog and observe the closure. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.nonEmpty.Broadcast()
}
