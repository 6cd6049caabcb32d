package campaign

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"tdmnoc/internal/stats"
)

// The record codec: a record's JSON written and read by hand, because
// reflection was a third of the control plane's CPU (every store line,
// completion body and /results line is a record). AppendJSON writes
// exactly the bytes json.Marshal writes; CutRecord reads back that
// canonical form, and DecodeRecord hands anything else to
// json.Unmarshal, so it accepts and rejects exactly what
// encoding/json does. FuzzRecordJSON holds both sides to their
// encoding/json references; a field added to Record or stats.RunRecord
// and not here fails TestRecordCodecCoversEveryField.

// AppendJSON appends json.Marshal(r) to dst: the same bytes (omitempty
// fields, encoding/json's float format, HTML-safe strings, sorted map
// keys) and, for a NaN or infinite float, the same error, with dst
// returned as it was.
func (r Record) AppendJSON(dst []byte) ([]byte, error) {
	e := encoder{b: dst}
	e.str(`{"key":`, r.Key)
	if r.Label != "" {
		e.str(`,"label":`, r.Label)
	}
	e.str(`,"mode":`, r.Mode)
	e.str(`,"pattern":`, r.Pattern)
	e.int(`,"width":`, int64(r.Width))
	e.int(`,"height":`, int64(r.Height))
	if r.Slots != 0 {
		e.int(`,"slots":`, int64(r.Slots))
	}
	e.float(`,"rate":`, r.Rate)
	e.b = strconv.AppendUint(append(e.b, `,"seed":`...), r.Seed, 10)
	e.int(`,"warmup":`, int64(r.Warmup))
	e.int(`,"measure":`, int64(r.Measure))
	e.b = append(e.b, `,"result":`...)
	e.result(&r.Result)
	if r.Telemetry != nil && e.err == nil {
		t, err := json.Marshal(r.Telemetry)
		e.b, e.err = append(append(e.b, `,"telemetry":`...), t...), err
	}
	if r.Err != "" {
		e.str(`,"error":`, r.Err)
	}
	e.b = append(e.b, '}')
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// AppendResultJSON appends json.Marshal(rr) to dst, as AppendJSON
// writes a record's "result": the /summary rows are these.
func AppendResultJSON(dst []byte, rr stats.RunRecord) ([]byte, error) {
	e := encoder{b: dst}
	e.result(&rr)
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// encoder appends JSON fields; err is the first unencodable value, as
// json.Marshal, which stops there, reports it.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) result(r *stats.RunRecord) {
	e.int(`{"runs":`, r.Runs)
	e.int(`,"cycles":`, r.Cycles)
	e.int(`,"packets":`, r.Packets)
	e.float(`,"net_latency_sum":`, r.NetLatencySum)
	e.float(`,"total_latency_sum":`, r.TotalLatencySum)
	e.float(`,"flit_cycles":`, r.FlitCycles)
	e.float(`,"payload_cycles":`, r.PayloadCycles)
	e.float(`,"cs_frac_packets":`, r.CSFracPackets)
	e.float(`,"config_frac_packets":`, r.ConfigFracPackets)
	e.intOmit(`,"hitchhikes":`, r.Hitchhikes)
	e.intOmit(`,"vicinity_rides":`, r.VicinityRides)
	e.intOmit(`,"circuits":`, r.Circuits)
	e.intOmit(`,"active_slots":`, int64(r.ActiveSlots))
	e.float(`,"energy_pj":`, r.EnergyPJ)
	e.intOmit(`,"cpu_instructions":`, r.CPUInstructions)
	e.intOmit(`,"gpu_iterations":`, r.GPUIterations)
	if r.GPUFlitCycles != 0 {
		e.float(`,"gpu_flit_cycles":`, r.GPUFlitCycles)
	}
	if r.GPUCSFlitCycles != 0 {
		e.float(`,"gpu_cs_flit_cycles":`, r.GPUCSFlitCycles)
	}
	e.floatMap(`,"dynamic_pj":`, r.DynamicPJ)
	e.floatMap(`,"static_pj":`, r.StaticPJ)
	e.b = append(e.b, '}')
}

func (e *encoder) int(name string, v int64) {
	e.b = strconv.AppendInt(append(e.b, name...), v, 10)
}

func (e *encoder) intOmit(name string, v int64) {
	if v != 0 {
		e.int(name, v)
	}
}

func (e *encoder) str(name, s string) {
	e.b = appendString(append(e.b, name...), s)
}

// float appends f as encoding/json does: 'f' format, or 'e' below 1e-6
// and from 1e21 up with a one-digit negative exponent unpadded (e-7,
// not e-07). NaN and ±Inf are json.Marshal's UnsupportedValueError.
func (e *encoder) float(name string, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	b := append(e.b, name...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.b = b
}

// floatMap appends a non-empty map with its keys in sorted order.
func (e *encoder) floatMap(name string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	var buf [16]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	sep := "{"
	e.b = append(e.b, name...)
	for _, k := range keys {
		e.b = appendString(append(e.b, sep...), k)
		e.float(":", m[k])
		sep = ","
	}
	e.b = append(e.b, '}')
}

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping on: <, > and & as \u003c-style escapes, control bytes as
// \n-style or \u00XX escapes, invalid UTF-8 as \ufffd, and U+2028 and
// U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// DecodeRecord decodes one record: json.Unmarshal(data, &r), by hand
// when data is exactly AppendJSON's form for a record without
// telemetry, and through encoding/json otherwise (another field order,
// whitespace, escapes, a field from a newer version, telemetry).
func DecodeRecord(data []byte) (Record, error) {
	if r, rest, ok := CutRecord(data); ok && len(rest) == 0 {
		return r, nil
	}
	var r Record
	err := json.Unmarshal(data, &r)
	return r, err
}

// CutRecord decodes the canonical record (AppendJSON's form, without
// telemetry) at the head of data and returns the bytes after it. ok is
// false when the head is anything else; the caller then decodes the
// whole input with encoding/json. A record CutRecord accepts is the
// one json.Unmarshal decodes from the same bytes.
func CutRecord(data []byte) (r Record, rest []byte, ok bool) {
	d := decoder{b: data}
	d.lit(`{"key":`)
	r.Key = d.str()
	if d.opt(`,"label":`) {
		r.Label = d.str()
	}
	d.lit(`,"mode":`)
	r.Mode = d.str()
	d.lit(`,"pattern":`)
	r.Pattern = d.str()
	d.lit(`,"width":`)
	r.Width = int(d.int())
	d.lit(`,"height":`)
	r.Height = int(d.int())
	if d.opt(`,"slots":`) {
		r.Slots = int(d.int())
	}
	d.lit(`,"rate":`)
	r.Rate = d.float()
	d.lit(`,"seed":`)
	r.Seed = d.uint()
	d.lit(`,"warmup":`)
	r.Warmup = int(d.int())
	d.lit(`,"measure":`)
	r.Measure = int(d.int())
	d.lit(`,"result":{"runs":`)
	res := &r.Result
	res.Runs = d.int()
	d.lit(`,"cycles":`)
	res.Cycles = d.int()
	d.lit(`,"packets":`)
	res.Packets = d.int()
	d.lit(`,"net_latency_sum":`)
	res.NetLatencySum = d.float()
	d.lit(`,"total_latency_sum":`)
	res.TotalLatencySum = d.float()
	d.lit(`,"flit_cycles":`)
	res.FlitCycles = d.float()
	d.lit(`,"payload_cycles":`)
	res.PayloadCycles = d.float()
	d.lit(`,"cs_frac_packets":`)
	res.CSFracPackets = d.float()
	d.lit(`,"config_frac_packets":`)
	res.ConfigFracPackets = d.float()
	if d.opt(`,"hitchhikes":`) {
		res.Hitchhikes = d.int()
	}
	if d.opt(`,"vicinity_rides":`) {
		res.VicinityRides = d.int()
	}
	if d.opt(`,"circuits":`) {
		res.Circuits = d.int()
	}
	if d.opt(`,"active_slots":`) {
		res.ActiveSlots = int(d.int())
	}
	d.lit(`,"energy_pj":`)
	res.EnergyPJ = d.float()
	if d.opt(`,"cpu_instructions":`) {
		res.CPUInstructions = d.int()
	}
	if d.opt(`,"gpu_iterations":`) {
		res.GPUIterations = d.int()
	}
	if d.opt(`,"gpu_flit_cycles":`) {
		res.GPUFlitCycles = d.float()
	}
	if d.opt(`,"gpu_cs_flit_cycles":`) {
		res.GPUCSFlitCycles = d.float()
	}
	if d.opt(`,"dynamic_pj":`) {
		res.DynamicPJ = d.floatMap()
	}
	if d.opt(`,"static_pj":`) {
		res.StaticPJ = d.floatMap()
	}
	d.lit("}")
	if d.opt(`,"error":`) {
		r.Err = d.str()
	}
	d.lit("}")
	if d.bad {
		return Record{}, data, false
	}
	return r, data[d.i:], true
}

// decoder reads the canonical form left to right. Any byte it does not
// expect sets bad, after which every read is a no-op: the caller checks
// once, at the end.
type decoder struct {
	b   []byte
	i   int
	bad bool
}

// lit consumes s, which must come next.
func (d *decoder) lit(s string) {
	if !d.opt(s) {
		d.bad = true
	}
}

// opt consumes s if it comes next.
func (d *decoder) opt(s string) bool {
	if d.bad || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// str reads a string free of escapes, control bytes and non-ASCII: the
// strings json.Unmarshal returns byte for byte.
func (d *decoder) str() string {
	if d.bad || d.i >= len(d.b) || d.b[d.i] != '"' {
		d.bad = true
		return ""
	}
	for j := d.i + 1; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := string(d.b[d.i+1 : j])
			d.i = j + 1
			return s
		case c < ' ' || c == '\\' || c >= utf8.RuneSelf:
			d.bad = true
			return ""
		}
	}
	d.bad = true
	return ""
}

// number reads a JSON number literal (-?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?);
// integral reports that it has neither fraction nor exponent. The
// returned string aliases the input: strconv copies it into any error
// it returns, and parsed values keep nothing of it.
func (d *decoder) number() (s string, integral bool) {
	if d.bad {
		return "", false
	}
	b, i := d.b, d.i
	digits := func() bool {
		n := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.bad = true
		return "", false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.bad = true
			return "", false
		}
		integral = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.bad = true
			return "", false
		}
		integral = false
	}
	s = unsafe.String(&b[d.i], i-d.i)
	d.i = i
	return s, integral
}

// int reads an integer; json.Unmarshal refuses a fraction, an exponent
// or an overflow for an integer field, so those leave the fast path.
func (d *decoder) int() int64 {
	s, integral := d.number()
	if !integral {
		d.bad = true
		return 0
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		d.bad = true
	}
	return v
}

func (d *decoder) uint() uint64 {
	s, integral := d.number()
	if !integral {
		d.bad = true
		return 0
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		d.bad = true
	}
	return v
}

func (d *decoder) float() float64 {
	s, _ := d.number()
	if d.bad {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.bad = true
	}
	return v
}

// floatMap reads {"k":v,...}. Keys may come in any order and repeat,
// the last value winning, as json.Unmarshal fills a map; {} is an
// empty, non-nil map, as there.
func (d *decoder) floatMap() map[string]float64 {
	d.lit("{")
	if d.bad {
		return nil
	}
	m := map[string]float64{}
	if d.opt("}") {
		return m
	}
	for {
		k := d.str()
		d.lit(":")
		m[k] = d.float()
		if d.bad || d.opt("}") {
			return m
		}
		d.lit(",")
	}
}
