package probe

import "seedscan/internal/ipaddr"

// replySpan records one packet's [off, end) byte range in the arena; an
// empty span (off == end) means the packet drew no reply.
type replySpan struct{ off, end int32 }

// ReplyBuf collects the replies to a batch of packets in one caller-owned
// arena. A responder answering pkts[i] calls at most one Put* method with
// index i; the caller then reads each packet's reply back with Reply(i).
// Reusing one ReplyBuf across batches makes the whole reply path
// allocation-free once the arena has warmed up.
//
// Reply slices alias the arena: they are valid until the next Reset and
// must not be retained past it. A ReplyBuf is not safe for concurrent use;
// give each worker its own.
type ReplyBuf struct {
	arena []byte
	spans []replySpan
}

// Reset prepares the buffer for a batch of n packets, all initially without
// replies. The arena's capacity is retained.
func (rb *ReplyBuf) Reset(n int) {
	rb.arena = rb.arena[:0]
	if cap(rb.spans) < n {
		rb.spans = make([]replySpan, n)
		return
	}
	rb.spans = rb.spans[:n]
	for i := range rb.spans {
		rb.spans[i] = replySpan{}
	}
}

// Len returns the batch size of the last Reset.
func (rb *ReplyBuf) Len() int { return len(rb.spans) }

// Reply returns packet i's reply bytes, or nil when it has none.
func (rb *ReplyBuf) Reply(i int) []byte {
	s := rb.spans[i]
	if s.end == s.off {
		return nil
	}
	return rb.arena[s.off:s.end]
}

func (rb *ReplyBuf) record(i, off int) {
	rb.spans[i] = replySpan{off: int32(off), end: int32(len(rb.arena))}
}

// PutEchoReply stores an ICMPv6 Echo Reply as packet i's reply.
func (rb *ReplyBuf) PutEchoReply(i int, src, dst ipaddr.Addr, id, seq uint16, payload []byte) {
	off := len(rb.arena)
	rb.arena = AppendEchoReply(rb.arena, src, dst, id, seq, payload)
	rb.record(i, off)
}

// PutTCPSynAck stores a TCP SYN-ACK as packet i's reply.
func (rb *ReplyBuf) PutTCPSynAck(i int, src, dst ipaddr.Addr, srcPort, dstPort uint16, seq, ack uint32) {
	off := len(rb.arena)
	rb.arena = AppendTCPSynAck(rb.arena, src, dst, srcPort, dstPort, seq, ack)
	rb.record(i, off)
}

// PutTCPRst stores a TCP RST as packet i's reply.
func (rb *ReplyBuf) PutTCPRst(i int, src, dst ipaddr.Addr, srcPort, dstPort uint16, seq, ack uint32) {
	off := len(rb.arena)
	rb.arena = AppendTCPRst(rb.arena, src, dst, srcPort, dstPort, seq, ack)
	rb.record(i, off)
}

// PutDNSResponse stores a DNS response as packet i's reply.
func (rb *ReplyBuf) PutDNSResponse(i int, src, dst ipaddr.Addr, dstPort, txid uint16, question []byte) {
	off := len(rb.arena)
	rb.arena = AppendDNSResponse(rb.arena, src, dst, dstPort, txid, question)
	rb.record(i, off)
}

// PutRaw copies an already-encoded packet into the arena as packet i's
// reply. It is the seam fault middlewares use to re-index replies
// between an inner and an outer buffer under the arena contract. raw must
// not alias rb's own arena.
func (rb *ReplyBuf) PutRaw(i int, raw []byte) {
	off := len(rb.arena)
	rb.arena = append(rb.arena, raw...)
	rb.record(i, off)
}

// PutUnreachable stores an ICMPv6 Destination Unreachable as packet i's
// reply. invoking is the probe being answered; it must not alias the arena
// (probes live in the sender's buffers, so in practice it never does).
func (rb *ReplyBuf) PutUnreachable(i int, src, dst ipaddr.Addr, code uint8, invoking []byte) {
	off := len(rb.arena)
	rb.arena = AppendUnreachable(rb.arena, src, dst, code, invoking)
	rb.record(i, off)
}
