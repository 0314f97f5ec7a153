package obs

import (
	"crypto/rand"
	"encoding/binary"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries a request ID across the serving tiers: minted at
// the edge (msroute, or msserve when it faces clients directly), propagated
// router→shard on the forwarded request, and echoed on every response so a
// client can quote the ID that appears in both tiers' logs.
const RequestIDHeader = "X-Malsched-Request"

// reqPrefix distinguishes processes; reqSeq distinguishes requests within
// one. Together they make IDs unique across a fleet without coordination.
var (
	reqPrefix = processPrefix()
	reqSeq    atomic.Uint64
)

func processPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 8)
	for i, c := range b {
		out[2*i] = hexdigits[c>>4]
		out[2*i+1] = hexdigits[c&0xf]
	}
	return string(out)
}

// idBlockSize is how many request IDs are minted at once: one string holds
// them all, so a request's ID costs 2/idBlockSize allocations.
const idBlockSize = 64

// idBlock is a run of minted IDs with consecutive sequence numbers. Each of
// ids is a substring of one rendered string, and a request takes
// ids[i:i+1:i+1] as its ID's header value. next is the first unclaimed
// index; it runs past the end once the block is spent.
type idBlock struct {
	next atomic.Int64
	ids  [idBlockSize]string
}

// idCurrent is the block IDs are claimed from.
var idCurrent atomic.Pointer[idBlock]

// NewRequestID mints a process-unique request ID: an 8-hex-char random
// process prefix plus a sequence number, in hex.
func NewRequestID() string { return newRequestIDValue()[0] }

// SetRequestID echoes a request's ID on its response header h and returns
// it: id, the ID the request carried, or a minted one when id is empty. A
// minted ID's header value is a window of its block, capacity 1 so that an
// append copies, and assigning it allocates nothing.
func SetRequestID(h http.Header, id string) string {
	if id != "" {
		h.Set(RequestIDHeader, id)
		return id
	}
	v := newRequestIDValue()
	h[RequestIDHeader] = v
	return v[0]
}

// newRequestIDValue claims the next ID of the current block, as a
// one-element header value, and mints a block when the current one is
// spent. Two callers that find it spent at once each mint one; the block
// that loses the swap serves its minter and the rest of its sequence range
// is never used, which leaves a gap in the sequence but no duplicate.
func newRequestIDValue() []string {
	b := idCurrent.Load()
	if b != nil {
		if i := b.next.Add(1) - 1; i < idBlockSize {
			return b.ids[i : i+1 : i+1]
		}
	}
	nb := mintIDBlock()
	idCurrent.CompareAndSwap(b, nb)
	return nb.ids[0:1:1]
}

// mintIDBlock renders the next idBlockSize sequence numbers into one string
// and returns them as a block whose first ID is already claimed.
func mintIDBlock() *idBlock {
	first := reqSeq.Add(idBlockSize) - idBlockSize + 1
	var buf [idBlockSize * (8 + 1 + 16)]byte
	var ends [idBlockSize]int
	all := buf[:0]
	for i := range ends {
		all = append(append(all, reqPrefix...), '-')
		all = strconv.AppendUint(all, first+uint64(i), 16)
		ends[i] = len(all)
	}
	rendered := string(all)
	b := &idBlock{}
	b.next.Store(1)
	start := 0
	for i, end := range ends {
		b.ids[i], start = rendered[start:end], end
	}
	return b
}
