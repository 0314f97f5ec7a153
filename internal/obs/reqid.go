package obs

import (
	"crypto/rand"
	"encoding/binary"
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

// NewRequestID mints a process-unique request ID: an 8-hex-char random
// process prefix plus a monotone sequence number. The ID is assembled in a
// stack buffer, so the returned string is its one allocation; concatenating
// a separately formatted number would cost two.
func NewRequestID() string {
	var buf [8 + 1 + 16]byte
	id := append(append(buf[:0], reqPrefix...), '-')
	return string(strconv.AppendUint(id, reqSeq.Add(1), 16))
}
