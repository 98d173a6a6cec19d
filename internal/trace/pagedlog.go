package trace

// Page bounds of a pagedLog: the first page holds firstPage entries and
// each later page twice its predecessor, up to maxPage. Small recorders
// (one per tenant campaign) stay small; a large run's pages stop growing
// once one page is big enough to amortise its header.
const (
	firstPage = 64
	maxPage   = 4096
)

// pagedLog is an append-only sequence stored in pages that are never
// copied once written. A flat slice grown by append re-copies every
// entry each time it outgrows its backing array; a 40k-record task log
// paid for each record about five times.
type pagedLog[T any] struct {
	pages [][]T // fixed-length pages; every page but the last is full
	tail  int   // entries used in the last page
	n     int   // entries in all pages
}

// push appends v, opening a new page when the last one is full.
func (l *pagedLog[T]) push(v T) {
	k := len(l.pages)
	if k == 0 || l.tail == len(l.pages[k-1]) {
		size := firstPage
		if k > 0 {
			size = min(2*len(l.pages[k-1]), maxPage)
		}
		l.pages = append(l.pages, make([]T, size))
		l.tail = 0
	}
	l.pages[len(l.pages)-1][l.tail] = v
	l.tail++
	l.n++
}

// last returns the most recent entry for in-place update, or nil when the
// log is empty.
func (l *pagedLog[T]) last() *T {
	if l.n == 0 {
		return nil
	}
	return &l.pages[len(l.pages)-1][l.tail-1]
}

// page returns the written entries of page i.
func (l *pagedLog[T]) page(i int) []T {
	if i == len(l.pages)-1 {
		return l.pages[i][:l.tail]
	}
	return l.pages[i]
}

// flat returns a fresh flat copy of the log in append order (nil when
// empty).
func (l *pagedLog[T]) flat() []T {
	if l.n == 0 {
		return nil
	}
	out := make([]T, 0, l.n)
	for i := range l.pages {
		out = append(out, l.page(i)...)
	}
	return out
}
