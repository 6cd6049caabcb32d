package fleet

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"

	"tdmnoc/internal/campaign"
)

// The worker protocol's two hot bodies, coded by hand: a completion
// carries a shard's records (campaign.Record's codec, json.Marshal's
// bytes), and a lease carries the campaign's spec, which each side
// codes once per campaign rather than once per lease. Neither moves a
// byte on the wire: both are what encoding/json wrote before.

// appendRecords appends recs as json.Marshal writes a []campaign.Record
// (null for nil).
func appendRecords(b []byte, recs []campaign.Record) ([]byte, error) {
	if recs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = r.AppendJSON(b); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendComplete appends json.Marshal(CompleteRequest{Records: recs}).
func appendComplete(b []byte, recs []campaign.Record) ([]byte, error) {
	b, err := appendRecords(append(b, `{"records":`...), recs)
	return append(b, '}'), err
}

// decodeComplete decodes a completion body as the lenient worker
// protocol always has, json.NewDecoder(body).Decode(&req): by hand when
// the body is exactly appendComplete's form for records without
// telemetry, through encoding/json otherwise (so a newer worker's
// extra fields still land).
func decodeComplete(body []byte) (CompleteRequest, error) {
	if recs, ok := cutRecords(body); ok {
		return CompleteRequest{Records: recs}, nil
	}
	var req CompleteRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// cutRecords reads a canonical completion body, {"records":[r,...]};
// ok is false for anything else.
func cutRecords(body []byte) (recs []campaign.Record, ok bool) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"records":[`))
	if !ok {
		return nil, false
	}
	recs = []campaign.Record{}
	for string(rest) != "]}" {
		if len(recs) > 0 {
			if rest, ok = bytes.CutPrefix(rest, []byte{','}); !ok {
				return nil, false
			}
		}
		var r campaign.Record
		if r, rest, ok = campaign.CutRecord(rest); !ok {
			return nil, false
		}
		recs = append(recs, r)
	}
	return recs, true
}

// leaseSpec is a campaign's spec as its lease bodies carry it:
// json.Marshal(spec) indented as fleetJSON indents a value one level
// down.
func leaseSpec(specJSON []byte) []byte {
	var b bytes.Buffer
	_ = json.Indent(&b, specJSON, "  ", "  ") // json.Marshal's output is valid JSON
	return b.Bytes()
}

// appendLease appends the body fleetJSON writes for l — json.Marshal
// indented by two spaces, then a newline — with spec, the campaign's
// leaseSpec, in place of the spec's encoding. Lease and campaign ids
// are c<digits> and c<digits>.<digits> (Submit and journal replay both
// name campaigns so), which JSON quotes as they are.
func appendLease(b []byte, l LeaseResponse, spec []byte) []byte {
	b = append(append(b, "{\n  \"lease_id\": \""...), l.LeaseID...)
	b = append(append(b, "\",\n  \"campaign\": \""...), l.Campaign...)
	b = append(append(b, "\",\n  \"spec\": "...), spec...)
	b = strconv.AppendInt(append(b, ",\n  \"shard\": {\n    \"index\": "...), int64(l.Shard.Index), 10)
	b = strconv.AppendInt(append(b, ",\n    \"size\": "...), int64(l.Shard.Size), 10)
	b = strconv.AppendInt(append(b, "\n  },\n  \"jobs\": "...), int64(l.Jobs), 10)
	b = strconv.AppendInt(append(b, ",\n  \"ttl_ns\": "...), int64(l.TTL), 10)
	return append(b, "\n}\n"...)
}

// decodeLease decodes a lease body as json.Unmarshal does. For
// appendLease's form it leaves the spec undecoded and returns its bytes
// for the worker's spec cache, which decodes them once per campaign:
// the spec is cut out, so encoding/json reads only the small frame
// around it, and the frame must be exactly appendLease's for it. Any
// other body is decoded whole, with spec nil.
func decodeLease(body []byte) (l LeaseResponse, spec []byte, err error) {
	if frame, spec, ok := cutLeaseSpec(body); ok && json.Unmarshal(frame, &l) == nil &&
		bytes.Equal(appendLease(nil, l, []byte("null")), frame) {
		return l, spec, nil
	}
	l = LeaseResponse{}
	return l, nil, json.Unmarshal(body, &l)
}

// cutLeaseSpec splits an indented lease body into its spec and the
// frame around it, with null in the spec's place: the spec runs from
// the line-leading `  "spec": {` to the `  }` line before the frame's
// `  "shard": {`, both near an end of the body. A cut that is a JSON
// value is the whole spec, since a value ends at its closing brace;
// the spec cache's json.Unmarshal checks that it is one.
func cutLeaseSpec(body []byte) (frame, spec []byte, ok bool) {
	const key, end = "\n  \"spec\": ", "\n  }"
	lo := bytes.Index(body, []byte(key+"{"))
	hi := bytes.LastIndex(body, []byte(end+",\n  \"shard\": {"))
	if lo < 0 || hi < lo+len(key) {
		return nil, nil, false
	}
	lo, hi = lo+len(key), hi+len(end)
	frame = make([]byte, 0, len(body)-(hi-lo)+len("null"))
	frame = append(append(append(frame, body[:lo]...), "null"...), body[hi:]...)
	return frame, body[lo:hi], true
}

// specCache is an HTTP worker's decoded specs, keyed by their bytes in
// the lease body: equal bytes decode to equal specs, so each campaign's
// spec is decoded once, by its first lease, and shared read-only by
// every shard of it the worker runs (Spec.Normalize never writes
// through what a copy shares). It holds only campaigns the worker has
// leases for: a spec nobody holds is dropped when a lease brings a new
// one.
type specCache struct {
	mu    sync.Mutex
	specs map[string]*cachedSpec
}

type cachedSpec struct {
	spec campaign.Spec
	held int // leases of this campaign the worker holds
}

// acquire returns the decoded spec for raw, counting one more lease
// held on it.
func (c *specCache) acquire(raw []byte) (*cachedSpec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.specs[string(raw)]; ok {
		e.held++
		return e, nil
	}
	e := &cachedSpec{held: 1}
	if err := json.Unmarshal(raw, &e.spec); err != nil {
		return nil, err
	}
	if c.specs == nil {
		c.specs = map[string]*cachedSpec{}
	}
	for k, old := range c.specs {
		if old.held == 0 {
			delete(c.specs, k)
		}
	}
	c.specs[string(raw)] = e
	return e, nil
}

// release gives back a lease acquire counted; nil (an in-process
// lease) is a no-op.
func (c *specCache) release(e *cachedSpec) {
	if e == nil {
		return
	}
	c.mu.Lock()
	e.held--
	c.mu.Unlock()
}
