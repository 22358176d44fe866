package cluster

import (
	"encoding/binary"
	"errors"
	"sync"

	"ldpids/internal/fo"
)

// joinRequest is the body of POST /cluster/v1/join: a replica announces
// itself and the contiguous user range it ingests for. N is the replica's
// view of the population size; a mismatch with the coordinator's is a
// deployment error and refused outright.
type joinRequest struct {
	Name string `json:"name"`
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
	N    int    `json:"n"`
}

// joinResponse acknowledges a join: the minted replica id, the
// coordinator's population and oracle configuration (so a misconfigured
// replica fails fast instead of shipping unmergeable counters), and the
// liveness contract the replica must keep.
type joinResponse struct {
	Replica         int64  `json:"replica"`
	N               int    `json:"n"`
	Oracle          string `json:"oracle"`
	D               int    `json:"d"`
	HeartbeatMillis int64  `json:"heartbeat_ms"`
	TTLMillis       int64  `json:"ttl_ms"`
}

// replicaRef is the body of POST /cluster/v1/heartbeat and /cluster/v1/leave.
type replicaRef struct {
	Replica int64 `json:"replica"`
}

// ack is the empty success envelope of membership posts.
type ack struct {
	OK bool `json:"ok"`
}

// announcement is the body of GET /cluster/v1/round: one open coordinator
// round. It mirrors serve's RoundInfo — the replica re-announces the same
// (Round, Token) pair to its device clients via Backend.SetNextRound, so
// device watermarks and report authentication stay coherent across the
// whole cluster. Users lists the requested population subset (null means
// everyone); each replica intersects it with its own shard.
type announcement struct {
	Round  int64   `json:"round"`
	T      int     `json:"t"`
	Eps    float64 `json:"eps"`
	Token  string  `json:"token"`
	Users  []int   `json:"users"`
	Oracle string  `json:"oracle"`
	D      int     `json:"d"`
	N      int     `json:"n"`
	// Trace is the coordinator's root span context (obs.SpanContext
	// wire form), present when the coordinator traces. Replicas parent
	// their shard-round spans under it; it carries no protocol state.
	Trace string `json:"trace,omitempty"`
}

// shipment is the body of POST /cluster/v1/counters: one replica's merged
// integer counters for one round — never raw reports, so the coordinator's
// ingest cost scales with the counter shape, not the population. A replica
// whose local round failed ships Err and the zero frame; the coordinator
// fails the round loudly rather than releasing an estimate that silently
// misses a shard.
//
// body is the encoded form — flat and little-endian like the LDPB report
// frame: magic "LDPC", a version byte, round and replica (int64 each), the
// token's and the error text's lengths (uint32 each), the token, the error
// text, then the counters in fo.CounterFrame's one wire encoding, to the
// end of the body. A shipment and its buffers are reused: a Replica keeps
// one across rounds (encode fills body from the fields), the coordinator
// draws them from shipmentPool (decode fills the fields from body; Token
// then aliases it).
type shipment struct {
	Round   int64
	Replica int64
	Token   []byte
	Err     string
	Frame   fo.CounterFrame

	body []byte
}

const (
	shipmentMagic  = "LDPC\x01" // magic and version
	shipmentHeader = len(shipmentMagic) + 8 + 8 + 4 + 4
	// maxShipmentBody caps one counter-shipment body. The largest frame is
	// an OLH-C cohort matrix (k*g int64 cells); 64 MiB bounds that far above
	// any realistic configuration without letting a stray client exhaust
	// memory. What it could hold as fixed-width words also caps the counters
	// a few sparse bytes may declare.
	maxShipmentBody = 64 << 20
)

// shipmentPool recycles the coordinator's inbound shipments — body buffer
// and counter storage — so a steady stream of frames decodes into memory
// earlier rounds already paid for.
var shipmentPool = sync.Pool{New: func() any { return new(shipment) }}

// encode rebuilds sh.body from the fields, reusing its storage.
func (sh *shipment) encode() (err error) {
	b := append(sh.body[:0], shipmentMagic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(sh.Round))
	b = binary.LittleEndian.AppendUint64(b, uint64(sh.Replica))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sh.Token)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sh.Err)))
	b = append(append(b, sh.Token...), sh.Err...)
	sh.body, err = sh.Frame.AppendWire(b)
	return err
}

// decode fills the fields from sh.body, keeping the round on an error past
// the fixed header (a refusal's journal record names it). Frame decodes
// into its own previous storage.
func (sh *shipment) decode() error {
	*sh = shipment{body: sh.body, Frame: sh.Frame}
	b := sh.body
	if len(b) < shipmentHeader || string(b[:len(shipmentMagic)]) != shipmentMagic {
		return errors.New("not a version-1 LDPC shipment")
	}
	b = b[len(shipmentMagic):]
	sh.Round = int64(binary.LittleEndian.Uint64(b))
	sh.Replica = int64(binary.LittleEndian.Uint64(b[8:]))
	t, e := uint64(binary.LittleEndian.Uint32(b[16:])), uint64(binary.LittleEndian.Uint32(b[20:]))
	if b = b[24:]; uint64(len(b)) < t+e {
		return errors.New("shipment shorter than the token and error text it declares")
	}
	sh.Token, sh.Err = b[:t], string(b[t:t+e])
	return sh.Frame.DecodeWire(b[t+e:], maxShipmentBody/8)
}

// shipAck is the success response to a counter shipment.
type shipAck struct {
	Accepted bool `json:"accepted"`
}
