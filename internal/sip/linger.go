package sip

import (
	"encoding/binary"
	"hash/maphash"
	"time"
)

// A transaction in its Completed linger (RFC 3261 Timers D, I and J) is
// kept as bytes, not as an object: the endpoint appends what the linger
// answers with to a byte log and drops the transaction. A log entry is
//
//	due (8 bytes, little-endian) · kind (1) · uvarint lengths of the
//	branch, method, address and message · those four byte strings
//
// where the address is where a replay goes (a server transaction's
// source, a client transaction's destination) and the message is what
// it replays: a server transaction's last response, or the ACK a client
// INVITE sent for its non-2xx final. Every linger lasts CompletedLinger,
// so the log is in due order and the reaper, which pops it from the
// front, removes exactly what the queue of transactions it replaces
// removed, at the same instants.
//
// The log is written in 4 KB chunks, a ring of them from the oldest to
// the one being written; a chunk is a generation of the log. Once the
// reaper has passed every entry of the oldest chunk it is reset whole
// and goes to a pool the next chunk is taken from, so a warm endpoint
// allocates nothing to linger. (A buffer per 100 ms of arrivals that
// doubled as it filled held 2.1 MB for 0.8 MB of entries in pbxd:
// every reused buffer grew to the power of two above the most it ever
// held. A pooled chunk per 100 ms wasted most of a chunk on each of
// the simulator's quiet endpoints.) One open-addressed index, as
// pointer-free as the log, maps a key to the newest entry for it, so a
// lookup is one probe sequence however many chunks there are.

const (
	// lingerSweep is the least the reaper waits between two sweeps, so
	// a stream of transactions that expire microseconds apart costs ten
	// timer firings a second, not one each.
	lingerSweep = 100 * time.Millisecond
	// lingerChunk is the size of the chunks the log is written in. An
	// entry does not straddle two chunks; one longer than a chunk gets a
	// chunk of its own size.
	lingerChunk = 4 << 10
	// lingerIdxMin is the smallest index: 64 slots of 12 B.
	lingerIdxMin = 64
)

// What a log entry lingers for.
const (
	lingerServer       byte = iota // non-INVITE server transaction
	lingerServerInvite             // INVITE server transaction
	lingerClientInvite             // client INVITE that got a non-2xx final
	// lingerRewrite marks an entry that carries a later response of a
	// transaction already in the log. The entry it supersedes has the
	// same due and keeps the count; this one only answers lookups.
	lingerRewrite byte = 1 << 7
)

// lingerSlot is one index slot: the low half of the key's hash, whose
// low bits pick the slot a probe starts at, and where its entry is —
// chunk serial and offset+1 (0: an empty slot). A slot whose chunk has
// been reset is stale, free for reuse.
type lingerSlot struct{ tag, chunk, loc uint32 }

// lingerEntry is a decoded log entry; its strings are views into the log.
type lingerEntry struct {
	due            time.Duration
	kind           byte
	branch, method []byte
	addr, wire     []byte
	size           int // bytes the entry takes in the log
}

func decodeLinger(b []byte) lingerEntry {
	e := lingerEntry{due: time.Duration(binary.LittleEndian.Uint64(b)), kind: b[8]}
	n := 9
	var lens [4]int
	for i := range lens {
		v, w := binary.Uvarint(b[n:])
		lens[i], n = int(v), n+w
	}
	field := func(l int) []byte { f := b[n : n+l : n+l]; n += l; return f }
	e.branch, e.method, e.addr, e.wire = field(lens[0]), field(lens[1]), field(lens[2]), field(lens[3])
	e.size = n
	return e
}

// lingerHash hashes a key on one side (client or server) of the
// endpoint. Tests replace it to force collisions.
var lingerHash = func(seed maphash.Seed, client bool, k txKey) uint64 {
	h := maphash.String(seed, k.branch) ^ 0x9e3779b97f4a7c15*maphash.String(seed, string(k.method))
	if client {
		h = ^h
	}
	return h
}

func (e *lingerEntry) is(client bool, k txKey) bool {
	return (e.kind&^lingerRewrite == lingerClientInvite) == client &&
		string(e.branch) == k.branch && string(e.method) == string(k.method)
}

// chunkAt returns the live chunk with the given serial, or nil.
func (ep *Endpoint) chunkAt(serial uint32) []byte {
	i := serial - ep.chunkSerial // wraps past chunkN for a reset one
	if i >= uint32(ep.chunkN) {
		return nil
	}
	return ep.chunks[(ep.chunkHead+int(i))&(len(ep.chunks)-1)]
}

// lingering finds the entry a message for key on the given side
// matches: one the reaper has not removed yet.
func (ep *Endpoint) lingering(client bool, k txKey) (lingerEntry, bool) {
	if ep.lingerN == 0 {
		return lingerEntry{}, false
	}
	i, ok, _ := ep.findSlot(client, k)
	if !ok {
		return lingerEntry{}, false
	}
	s := ep.idx[i]
	e := decodeLinger(ep.chunkAt(s.chunk)[s.loc-1:])
	return e, e.due > ep.reapedAt
}

// findSlot returns the index slot holding key on the given side, or
// false and the slot a new entry for it goes in; and the key's tag.
func (ep *Endpoint) findSlot(client bool, k txKey) (int, bool, uint32) {
	tag := uint32(lingerHash(ep.seed, client, k))
	if len(ep.idx) == 0 {
		return 0, false, tag
	}
	mask := len(ep.idx) - 1
	free := -1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		s := ep.idx[i]
		if s.loc == 0 {
			if free < 0 {
				free = i
			}
			return free, false, tag
		}
		c := ep.chunkAt(s.chunk)
		if c == nil {
			if free < 0 {
				free = i
			}
			continue
		}
		if s.tag == tag {
			if e := decodeLinger(c[s.loc-1:]); e.is(client, k) {
				return i, true, tag
			}
		}
	}
}

// lingerLocked appends an entry for a transaction entering its linger
// and returns its due time. It arms the reaper if nothing lingered.
func (ep *Endpoint) lingerLocked(kind byte, k txKey, addr string, wire []byte) time.Duration {
	now := ep.clock.Now()
	if ep.lingerN == 0 {
		ep.reaper.Schedule(CompletedLinger)
	}
	ep.lingerN++
	ep.appendLocked(kind, now+CompletedLinger, k, addr, wire)
	return now + CompletedLinger
}

// relogLocked replaces the message a lingering server transaction
// replays with a later response of its, keeping its due: a rewrite
// entry takes over its index slot. A transaction the reaper has
// removed — its key maybe reused since — is left alone.
func (ep *Endpoint) relogLocked(tx *ServerTx, wire []byte) {
	if e, ok := ep.lingering(false, tx.key); ok && e.due == tx.due {
		ep.appendLocked(e.kind|lingerRewrite, e.due, tx.key, tx.src, wire)
	}
}

// appendLocked writes an entry to the newest chunk, or to a new one if
// it does not fit, and points the key's index slot at it.
func (ep *Endpoint) appendLocked(kind byte, due time.Duration, k txKey, addr string, wire []byte) {
	need := 9 + 4*binary.MaxVarintLen32 + len(k.branch) + len(k.method) + len(addr) + len(wire)
	last := (ep.chunkHead + ep.chunkN - 1) & (len(ep.chunks) - 1)
	if ep.chunkN == 0 || len(ep.chunks[last])+need > cap(ep.chunks[last]) {
		last = ep.openChunkLocked(need)
	}
	b := ep.chunks[last]
	off := len(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(due))
	b = append(b, kind)
	for _, l := range [...]int{len(k.branch), len(k.method), len(addr), len(wire)} {
		b = binary.AppendUvarint(b, uint64(l))
	}
	b = append(append(append(append(b, k.branch...), k.method...), addr...), wire...)
	ep.logBytes += len(b) - off
	ep.chunks[last] = b

	client := kind&^lingerRewrite == lingerClientInvite
	i, found, tag := ep.findSlot(client, k)
	if !found && (len(ep.idx) == 0 || ep.idxUsed+1 > len(ep.idx)*3/4) {
		ep.rebuildIndexLocked()
		i, _, _ = ep.findSlot(client, k)
	}
	if ep.idx[i].loc == 0 {
		ep.idxUsed++
	}
	ep.idx[i] = lingerSlot{tag, ep.chunkSerial + uint32(ep.chunkN) - 1, uint32(off) + 1}
}

// openChunkLocked appends a chunk to the ring and returns its place: a
// pooled one, or for an entry longer than a chunk one of its own size,
// with no room left after it.
func (ep *Endpoint) openChunkLocked(need int) int {
	if ep.chunkN == len(ep.chunks) {
		chunks := make([][]byte, max(16, 2*len(ep.chunks)))
		for i := 0; i < ep.chunkN; i++ {
			chunks[i] = ep.chunks[(ep.chunkHead+i)&(len(ep.chunks)-1)]
		}
		ep.chunks, ep.chunkHead = chunks, 0
	}
	var c []byte
	if n := len(ep.freeChunks); need <= lingerChunk && n > 0 {
		c, ep.freeChunks = ep.freeChunks[n-1], ep.freeChunks[:n-1]
	} else {
		c = make([]byte, 0, max(need, lingerChunk))
	}
	last := (ep.chunkHead + ep.chunkN) & (len(ep.chunks) - 1)
	ep.chunks[last] = c
	ep.chunkN++
	return last
}

// rebuildIndexLocked rehashes the live slots into an index with room
// for at least as many again, dropping the stale ones.
func (ep *Endpoint) rebuildIndexLocked() {
	live := 0
	for _, s := range ep.idx {
		if s.loc != 0 && ep.chunkAt(s.chunk) != nil {
			live++
		}
	}
	n := max(len(ep.idx), lingerIdxMin)
	for 2*(live+1) > n {
		n *= 2
	}
	old := ep.idx
	if len(ep.idxSpare) == n {
		ep.idx, ep.idxSpare = ep.idxSpare, nil
		clear(ep.idx)
	} else {
		ep.idx = make([]lingerSlot, n)
	}
	mask := n - 1
	for _, s := range old {
		if s.loc == 0 || ep.chunkAt(s.chunk) == nil {
			continue
		}
		i := int(s.tag) & mask
		for ep.idx[i].loc != 0 {
			i = (i + 1) & mask
		}
		ep.idx[i] = s
	}
	if len(old) == n {
		ep.idxSpare = old
	}
	ep.idxUsed = live
}

// reap is the reaper timer's callback: it passes every entry whose
// linger has run out, resets each chunk it has passed whole, and
// re-arms for the oldest entry left — or not at all when none is.
func (ep *Endpoint) reap() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.reaperRuns++
	now := ep.clock.Now()
	ep.reapedAt = now
	for ep.chunkN > 0 {
		c := ep.chunks[ep.chunkHead]
		for ep.headOff < len(c) {
			e := decodeLinger(c[ep.headOff:])
			if e.due > now {
				ep.reaper.Schedule(max(e.due-now, lingerSweep))
				return
			}
			if e.kind&lingerRewrite == 0 {
				ep.lingerN--
			}
			ep.headOff += e.size
		}
		ep.logBytes -= len(c)
		if cap(c) == lingerChunk {
			ep.freeChunks = append(ep.freeChunks, c[:0])
		}
		ep.chunks[ep.chunkHead] = nil
		ep.chunkHead = (ep.chunkHead + 1) & (len(ep.chunks) - 1)
		ep.chunkN--
		ep.chunkSerial++
		ep.headOff = 0
	}
}

// dropLogLocked forgets every lingering transaction at once.
func (ep *Endpoint) dropLogLocked() {
	ep.chunkSerial += uint32(ep.chunkN)
	ep.chunks, ep.chunkHead, ep.chunkN, ep.headOff, ep.freeChunks = nil, 0, 0, 0, nil
	ep.idx, ep.idxSpare, ep.idxUsed = nil, nil, 0
	ep.lingerN, ep.logBytes = 0, 0
}
