//certchain:hotpath — the row decoder runs once per ssl.log/x509.log line, batch and streaming.

package zeek

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"certchains/internal/certmodel"
	"certchains/internal/dn"
)

// RowDecoder is the one per-line decoder of the fast path: one complete log
// line of bytes in (terminator and trailing \r already stripped), one typed
// row out — an SSLRecord or an X509Row — with no I/O of its own. It carries
// what decoding a stream needs between lines (the TSV #fields column map and
// #close state) and the scratch it reuses, and nothing about where lines
// come from or what a bad one means: the batch join (block.go) wraps it in
// the batch readers' fatal-error policy, the Tailer in the daemon's
// count-and-continue policy.
//
// The decoded row is pooled: it, its CertChainFUIDs slice and an X509Row's
// byte views are valid until the next decode call. Field strings are interned
// or freshly copied, so they may be retained.
//
// Both formats decode here. TSV splits the line into columns and resolves
// escapes in place on access; ND-JSON runs the flat-object tokenizer
// (jsonTok) and re-parses any line outside its subset through encoding/json
// — counted per reason in Fallbacks — so every input decodes exactly as the
// legacy LineDecoder → Parse*Record path would. An ssl fallback line's Record
// is then transcoded into a TSV line and decoded by the TSV column code, so
// every ssl row, fast or not, is one sslView over one line.
//
// An ssl.log line decodes in two halves: viewSSL does everything that needs
// no shared state (split, unescape, validate, number/time/bool parse) and
// leaves the strings as spans of the line; materializeSSL interns them into
// the pooled SSLRecord. decodeSSL runs the halves back to back; the batch
// join runs the first on worker goroutines and the second, in file order,
// on its caller (block.go) — or, grouped, interns per group (group.go).
type RowDecoder struct {
	json bool
	strs *certmodel.Interner

	// fields is the current #fields directive; gen bumps on every directive
	// (and on reset) so the column maps know to recompute.
	fields   []string
	gen      int
	closed   bool
	line     []byte // the TSV line being decoded
	escaped  bool   // whether it holds a backslash, so a field may need unescaping
	cols     []span // its columns
	sslCols  sslCols
	x509Cols x509Cols

	view    sslView
	fuids   []string // backing array of ssl.CertChainFUIDs
	scratch []byte
	esc     []byte // the ND-JSON x509 line's unescaped string values
	// tsv is the TSV line an ND-JSON ssl fallback line was transcoded into,
	// empty unless the last viewSSL decoded one: then the view spans it.
	tsv  []byte
	ssl  SSLRecord
	x509 X509Row

	fallbacks [len(FallbackReasons)]int64
}

// span is a field value as byte offsets into the line it was decoded from.
// Offsets are 32-bit to keep a block's rows small; blockReader keeps every
// block, so every line, under 4 GiB.
type span struct{ lo, hi uint32 }

func mkSpan(lo, hi int) span { return span{uint32(lo), uint32(hi)} }

// of returns the bytes s covers in line.
func (s span) of(line []byte) []byte { return line[s.lo:s.hi] }

// sslView is the stateless half of a decoded ssl.log row: every value parsed,
// every string still a span of the line. Building one touches neither the
// interner nor the chain cache, so any goroutine can; materializeSSL turns it
// into an SSLRecord on the goroutine that owns them.
type sslView struct {
	ts                                             float64 // epoch seconds
	uid, origH, respH, version, cipher, serverName span
	origP, respP                                   int
	fuids                                          span // the comma list; see appendVector
	resumed, established                           bool
}

// NewRowDecoder returns a decoder for one log stream in TSV (or ND-JSON)
// format. strs canonicalizes repeated field values; the decoders of the two
// streams of one join share it.
func NewRowDecoder(ndjson bool, strs *certmodel.Interner) *RowDecoder {
	return &RowDecoder{json: ndjson, strs: strs, sslCols: sslCols{gen: -1}, x509Cols: x509Cols{gen: -1}}
}

// rowStatus classifies what one line decoded to. The statuses past
// rowRecordErr are lines the legacy LineDecoder rejects; which of them are
// fatal is the caller's policy.
type rowStatus uint8

const (
	rowNone       rowStatus = iota // blank line or header directive: no data
	rowOK                          // a row, in d.ssl or d.x509
	rowRecordErr                   // decoded, but Parse*Record rejects it (the error says why)
	rowNoHeader                    // TSV data before any #fields directive
	rowFieldCount                  // TSV value count differs from the #fields count
	rowBadJSON                     // not a JSON object (the error is encoding/json's)
	rowTooLong                     // ND-JSON line at or past maxJSONLine
)

// FallbackReasons names why an ND-JSON line left the fast tokenizer, indexing
// RowDecoder.Fallbacks: the line carries a backslash escape the tokenizer
// does not resolve (\u anywhere; any escape outside the x509 id, serial,
// subject and issuer values), it is valid JSON of another shape (nested
// values, type surprises, sentinel collisions, invalid UTF-8), or
// encoding/json rejects it too.
var FallbackReasons = [...]string{"escape", "shape", "malformed"}

const (
	fallbackEscape = iota
	fallbackShape
	fallbackMalformed
)

// Fallbacks counts the ND-JSON lines decoded by the legacy parser instead of
// the fast tokenizer, per FallbackReasons entry. TSV never falls back.
func (d *RowDecoder) Fallbacks() [len(FallbackReasons)]int64 { return d.fallbacks }

// Closed reports whether the stream has announced its end (#close).
func (d *RowDecoder) Closed() bool { return d.closed }

// reset forgets the stream state: the next file brings its own header.
func (d *RowDecoder) reset() { d.restore(nil, false) }

// header and restore expose the stream state a tailer snapshot persists.
func (d *RowDecoder) header() (fields []string, closed bool) { return d.fields, d.closed }

func (d *RowDecoder) restore(fields []string, closed bool) {
	d.fields, d.closed = fields, closed
	d.gen++
}

// decodeSSL decodes one ssl.log line into d.ssl.
func (d *RowDecoder) decodeSSL(line []byte) (rowStatus, error) {
	st, err := d.viewSSL(line, &d.view)
	if st == rowOK {
		if len(d.tsv) > 0 {
			line = d.tsv
		}
		d.materializeSSL(line, &d.view)
		if v := &d.view; v.fuids.hi > v.fuids.lo {
			d.fuids = d.appendVector(d.fuids[:0], v.fuids.of(line))
			d.ssl.CertChainFUIDs = d.fuids
		}
	}
	return st, err
}

// viewSSL decodes one ssl.log line into v. It never touches the interner.
// v's spans index line, or d.tsv when viewSSL leaves that non-empty.
func (d *RowDecoder) viewSSL(line []byte, v *sslView) (rowStatus, error) {
	d.tsv = d.tsv[:0]
	if len(line) == 0 {
		return rowNone, nil
	}
	if d.json {
		return d.sslJSON(line, v)
	}
	if st := d.splitTSV(line); st != rowOK {
		return st, nil
	}
	if d.sslCols.gen != d.gen {
		d.sslCols.refresh(d.fields, d.gen) //certchain:coldpath once per #fields directive
	}
	return d.sslTSV(v, &d.sslCols)
}

// materializeSSL fills d.ssl from a view of line, CertChainFUIDs aside:
// strings interned, the uid copied — it is unique per row.
func (d *RowDecoder) materializeSSL(line []byte, v *sslView) {
	d.ssl = SSLRecord{
		TS:          epochToTime(v.ts),
		UID:         string(v.uid.of(line)),
		OrigH:       d.strs.Bytes(v.origH.of(line)),
		OrigP:       v.origP,
		RespH:       d.strs.Bytes(v.respH.of(line)),
		RespP:       v.respP,
		Version:     d.strs.Bytes(v.version.of(line)),
		Cipher:      d.strs.Bytes(v.cipher.of(line)),
		ServerName:  d.strs.Bytes(v.serverName.of(line)),
		Resumed:     v.resumed,
		Established: v.established,
	}
}

// appendVector interns the elements of a non-empty vector value — a comma
// list, as TSV writes it and compactVector leaves an ND-JSON array — onto
// dst.
func (d *RowDecoder) appendVector(dst []string, v []byte) []string {
	for {
		i := bytes.IndexByte(v, ',')
		if i < 0 {
			return append(dst, d.strs.Bytes(v))
		}
		dst = append(dst, d.strs.Bytes(v[:i]))
		v = v[i+1:]
	}
}

// vector is appendVector into a fresh slice a certificate may retain; an
// empty value is nil.
func (d *RowDecoder) vector(v []byte) []string {
	if len(v) == 0 {
		return nil
	}
	return d.appendVector(make([]string, 0, bytes.Count(v, []byte{','})+1), v)
}

// compactVector rewrites an array jsonVector validated, in place, as the
// comma list TSV would carry — ["a", "b"] becomes a,b — and returns its span.
// Its elements are plain strings, so they are exactly the runs between
// quote pairs. Only a line the fast path has fully accepted may be
// rewritten: a fallback line is re-parsed as it stood.
func compactVector(line []byte, s span) span {
	v, w := s.of(line), s.lo
	for {
		i := bytes.IndexByte(v, '"')
		if i < 0 {
			return span{s.lo, w}
		}
		v = v[i+1:]
		i = bytes.IndexByte(v, '"')
		if w > s.lo {
			line[w] = ','
			w++
		}
		w += uint32(copy(line[w:], v[:i]))
		v = v[i+1:]
	}
}

// decodeX509 decodes one x509.log line into d.x509.
func (d *RowDecoder) decodeX509(line []byte) (rowStatus, error) {
	if len(line) == 0 {
		return rowNone, nil
	}
	if d.json {
		return d.x509JSON(line)
	}
	if st := d.splitTSV(line); st != rowOK {
		return st, nil
	}
	if d.x509Cols.gen != d.gen {
		d.x509Cols.refresh(d.fields, d.gen) //certchain:coldpath once per #fields directive
	}
	d.x509TSV()
	return d.x509.status()
}

// ---- TSV ----

// splitTSV folds a directive line into the stream state, or cuts a data line
// into d.cols.
func (d *RowDecoder) splitTSV(line []byte) rowStatus {
	if line[0] == '#' {
		d.directive(line)
		return rowNone
	}
	if len(d.fields) == 0 {
		return rowNoHeader
	}
	if d.split(line); len(d.cols) != len(d.fields) {
		return rowFieldCount
	}
	return rowOK
}

// split cuts a TSV data line into d.cols.
func (d *RowDecoder) split(line []byte) {
	d.line, d.cols = line, d.cols[:0]
	d.escaped = bytes.IndexByte(line, '\\') >= 0
	for lo := 0; ; {
		i := bytes.IndexByte(line[lo:], '\t')
		if i < 0 {
			d.cols = append(d.cols, mkSpan(lo, len(line)))
			return
		}
		d.cols = append(d.cols, mkSpan(lo, lo+i))
		lo += i + 1
	}
}

// directive folds one '#'-prefixed header line, with the legacy decoders'
// matching: #close and #open by prefix, #fields by exact key. Other
// directives (#separator, #types, ...) do not affect decoding.
//
//certchain:coldpath once per directive line, not per record
func (d *RowDecoder) directive(row []byte) {
	const fieldsKey = "#fields"
	switch {
	case bytes.HasPrefix(row, []byte("#close")):
		d.closed = true
	case bytes.HasPrefix(row, []byte("#open")):
		// A writer reopening the same file after #close resumes the stream.
		d.closed = false
	case bytes.HasPrefix(row, []byte(fieldsKey+Separator)):
		d.fields = strings.Split(string(row[len(fieldsKey)+1:]), Separator)
		d.gen++
	case string(row) == fieldsKey:
		// No separator at all: the legacy parse maps the empty rest to one
		// empty field name.
		d.fields = []string{""}
		d.gen++
	}
}

// sslCols maps the ssl schema onto the current #fields directive;
// duplicate names keep the last column, like Record construction.
type sslCols struct {
	gen                                 int
	ts, uid, origH, origP, respH, respP int
	version, cipher, serverName         int
	resumed, established, chain         int
}

func (c *sslCols) refresh(fields []string, gen int) {
	*c = sslCols{gen: gen, ts: -1, uid: -1, origH: -1, origP: -1, respH: -1, respP: -1,
		version: -1, cipher: -1, serverName: -1, resumed: -1, established: -1, chain: -1}
	for i, f := range fields {
		switch f {
		case "ts":
			c.ts = i
		case "uid":
			c.uid = i
		case "id.orig_h":
			c.origH = i
		case "id.orig_p":
			c.origP = i
		case "id.resp_h":
			c.respH = i
		case "id.resp_p":
			c.respP = i
		case "version":
			c.version = i
		case "cipher":
			c.cipher = i
		case "server_name":
			c.serverName = i
		case "resumed":
			c.resumed = i
		case "established":
			c.established = i
		case "cert_chain_fuids":
			c.chain = i
		}
	}
}

type x509Cols struct {
	gen                                   int
	ts, id, serial, subject, issuer       int
	nvb, nva, sigAlg, keyType, keyLen, bc int
	san                                   int
}

func (c *x509Cols) refresh(fields []string, gen int) {
	*c = x509Cols{gen: gen, ts: -1, id: -1, serial: -1, subject: -1, issuer: -1,
		nvb: -1, nva: -1, sigAlg: -1, keyType: -1, keyLen: -1, bc: -1, san: -1}
	for i, f := range fields {
		switch f {
		case "ts":
			c.ts = i
		case "id":
			c.id = i
		case "certificate.serial":
			c.serial = i
		case "certificate.subject":
			c.subject = i
		case "certificate.issuer":
			c.issuer = i
		case "certificate.not_valid_before":
			c.nvb = i
		case "certificate.not_valid_after":
			c.nva = i
		case "certificate.sig_alg":
			c.sigAlg = i
		case "certificate.key_type":
			c.keyType = i
		case "certificate.key_length":
			c.keyLen = i
		case "basic_constraints.ca":
			c.bc = i
		case "san.dns":
			c.san = i
		}
	}
}

// field returns the span of column c, unescaped, and whether the field is
// set: the unset sentinel maps to absent, the empty sentinel to a present
// empty value — Record.Get over the line's bytes. Each column must be
// accessed at most once per row (unescaping rewrites the line in place).
// c < 0 means the header lacks the field.
func (d *RowDecoder) field(c int) (span, bool) {
	if c < 0 {
		return span{}, false
	}
	s := d.cols[c]
	v := s.of(d.line)
	if d.escaped {
		v = unescapeInPlace(v)
		s.hi = s.lo + uint32(len(v))
		d.cols[c] = s
	}
	if string(v) == UnsetField {
		return span{}, false
	}
	if string(v) == EmptyField {
		return span{s.lo, s.lo}, true
	}
	return s, true
}

// fieldBytes is field as a view of the line: nil when absent.
func (d *RowDecoder) fieldBytes(c int) []byte {
	s, ok := d.field(c)
	if !ok {
		return nil
	}
	return s.of(d.line)
}

// fieldEpoch parses a Zeek time column into epoch seconds.
func (d *RowDecoder) fieldEpoch(c int) (float64, bool) {
	s, ok := d.field(c)
	if !ok {
		return 0, false
	}
	return parseFloatBytes(s.of(d.line))
}

// fieldTime parses a Zeek time column — Record.GetTime over byte views.
func (d *RowDecoder) fieldTime(c int) (time.Time, bool) {
	f, ok := d.fieldEpoch(c)
	if !ok {
		return time.Time{}, false
	}
	return epochToTime(f), true
}

// fieldInt parses a count/int column — Record.GetInt over byte views.
func (d *RowDecoder) fieldInt(c int) (int, bool) {
	s, ok := d.field(c)
	if !ok {
		return 0, false
	}
	return parseIntBytes(s.of(d.line))
}

// fieldBool parses a Zeek bool column — Record.GetBool over byte views.
func (d *RowDecoder) fieldBool(c int) (value, present bool) {
	s, ok := d.field(c)
	if !ok {
		return false, false
	}
	return string(s.of(d.line)) == "T", true
}

// fieldInterned reads a scalar string column into the interner; absent
// fields become "" exactly as Record.Get's callers see them.
func (d *RowDecoder) fieldInterned(c int) string {
	s, _ := d.field(c)
	return d.strs.Bytes(s.of(d.line))
}

func (d *RowDecoder) sslTSV(v *sslView, c *sslCols) (rowStatus, error) {
	*v = sslView{}
	var ok bool
	if v.ts, ok = d.fieldEpoch(c.ts); !ok {
		return rowRecordErr, errSSLMissingTS
	}
	if v.uid, _ = d.field(c.uid); v.uid.hi == v.uid.lo {
		return rowRecordErr, errSSLMissingUID
	}
	v.origH, _ = d.field(c.origH)
	v.origP, _ = d.fieldInt(c.origP)
	v.respH, _ = d.field(c.respH)
	v.respP, _ = d.fieldInt(c.respP)
	v.version, _ = d.field(c.version)
	v.cipher, _ = d.field(c.cipher)
	v.serverName, _ = d.field(c.serverName)
	v.resumed, _ = d.fieldBool(c.resumed)
	v.established, _ = d.fieldBool(c.established)
	v.fuids, _ = d.field(c.chain)
	return rowOK, nil
}

// X509Row is one decoded x509.log row: the fields a certificate's Meta is
// built from, the raw ones as byte views into the decoded line (valid until
// the decoder's next line). The index builders look the id up first and only
// parse the DNs of a certificate they have not seen.
type X509Row struct {
	ts, nvb, nva time.Time
	tsOK         bool
	id           []byte
	serial       []byte
	subject      []byte
	issuer       []byte
	keyType      string
	sigAlg       string
	keyLen       int
	bcVal, bcSet bool
	san          []string // retained by the Meta: never the decoder's scratch
}

func (d *RowDecoder) x509TSV() {
	c := &d.x509Cols
	d.x509 = X509Row{}
	row := &d.x509
	row.ts, row.tsOK = d.fieldTime(c.ts)
	row.id = d.fieldBytes(c.id)
	row.serial = d.fieldBytes(c.serial)
	row.subject = d.fieldBytes(c.subject)
	row.issuer = d.fieldBytes(c.issuer)
	row.nvb, _ = d.fieldTime(c.nvb)
	row.nva, _ = d.fieldTime(c.nva)
	row.sigAlg = d.fieldInterned(c.sigAlg)
	row.keyType = d.fieldInterned(c.keyType)
	row.keyLen, _ = d.fieldInt(c.keyLen)
	row.bcVal, row.bcSet = d.fieldBool(c.bc)
	row.san = d.vector(d.fieldBytes(c.san))
}

// status is ParseX509Record's verdict on a decoded row.
func (r *X509Row) status() (rowStatus, error) {
	if !r.tsOK {
		return rowRecordErr, errX509MissingTS
	}
	if len(r.id) == 0 {
		return rowRecordErr, errX509MissingID
	}
	return rowOK, nil
}

// fromRecord loads a typed record into the row form, so the legacy-parsed
// rows (ND-JSON fallback lines, the Record entry points) index through the
// same code as fast-decoded ones.
//
//certchain:coldpath anomalous-line fallback and Record probe surface
func (r *X509Row) fromRecord(x *X509Record) {
	*r = X509Row{
		ts: x.TS, tsOK: true, nvb: x.NotValidBefore, nva: x.NotValidAfter,
		id: []byte(x.ID), serial: []byte(x.Serial),
		subject: []byte(x.Subject), issuer: []byte(x.Issuer),
		keyType: x.KeyType, sigAlg: x.SigAlg, keyLen: x.KeyLength, san: x.SANDNS,
	}
	if x.BasicConstraintsCA != nil {
		r.bcVal, r.bcSet = *x.BasicConstraintsCA, true
	}
}

// meta builds the certificate model of a row whose id is new to the caller's
// index — the test oracle's X509Record.ToMeta over byte views, error text
// included, with DN parsing memoized in dns.
func (r *X509Row) meta(dns *dn.Interner) (*certmodel.Meta, error) {
	issuer, err := dns.Parse(r.issuer)
	if err != nil {
		return nil, fmt.Errorf("zeek: x509 %s: bad issuer: %w", r.id, err) //certchain:coldpath malformed-record error path
	}
	subject, err := dns.Parse(r.subject)
	if err != nil {
		return nil, fmt.Errorf("zeek: x509 %s: bad subject: %w", r.id, err) //certchain:coldpath malformed-record error path
	}
	m := &certmodel.Meta{
		FP:        certmodel.Fingerprint(r.id),
		Issuer:    issuer,
		Subject:   subject,
		SerialHex: strings.ToLower(string(r.serial)),
		NotBefore: r.nvb,
		NotAfter:  r.nva,
		KeyAlg:    certmodel.KeyAlgorithm(r.keyType),
		KeyBits:   r.keyLen,
		SigAlg:    r.sigAlg,
		SAN:       r.san,
	}
	switch {
	case !r.bcSet:
		m.BC = certmodel.BCAbsent
	case r.bcVal:
		m.BC = certmodel.BCTrue
	default:
		m.BC = certmodel.BCFalse
	}
	return m, nil
}

// ---- ND-JSON ----

// JSON key dispatch tables; 0 means "not a schema field, skip".
const (
	jkTS = 1 + iota
	jkUID
	jkOrigH
	jkOrigP
	jkRespH
	jkRespP
	jkVersion
	jkCipher
	jkServerName
	jkResumed
	jkEstablished
	jkChain
	jkID
	jkSerial
	jkSubject
	jkIssuer
	jkNVB
	jkNVA
	jkKeyAlg
	jkSigAlg
	jkKeyType
	jkKeyLen
	jkBC
	jkSAN
	jkX509Version
)

var sslJSONKey = map[string]int{
	"ts": jkTS, "uid": jkUID, "id.orig_h": jkOrigH, "id.orig_p": jkOrigP,
	"id.resp_h": jkRespH, "id.resp_p": jkRespP, "version": jkVersion,
	"cipher": jkCipher, "server_name": jkServerName, "resumed": jkResumed,
	"established": jkEstablished, "cert_chain_fuids": jkChain,
}

var x509JSONKey = map[string]int{
	"ts": jkTS, "id": jkID, "certificate.version": jkX509Version,
	"certificate.serial": jkSerial, "certificate.subject": jkSubject,
	"certificate.issuer": jkIssuer, "certificate.not_valid_before": jkNVB,
	"certificate.not_valid_after": jkNVA, "certificate.key_alg": jkKeyAlg,
	"certificate.sig_alg": jkSigAlg, "certificate.key_type": jkKeyType,
	"certificate.key_length": jkKeyLen, "basic_constraints.ca": jkBC,
	"san.dns": jkSAN,
}

func (d *RowDecoder) sslJSON(line []byte, v *sslView) (rowStatus, error) {
	rowErr, fastOK := d.sslJSONFast(line, v)
	if !fastOK {
		rec, err := d.legacyJSONRecord(line) //certchain:coldpath anomalous-line fallback
		if err != nil {
			return rowBadJSON, err
		}
		// The Record becomes the TSV line a writer would carry: sslFields in
		// order, a field the line lacks unset, every value escaped — so the
		// TSV column code reads each value as ParseSSLRecord would.
		for i, f := range sslFields {
			if i > 0 {
				d.tsv = append(d.tsv, '\t')
			}
			if v, ok := rec[f]; ok {
				d.tsv = appendEscaped(d.tsv, v)
			} else {
				d.tsv = append(d.tsv, UnsetField...)
			}
		}
		var c sslCols
		c.refresh(sslFields, 0)
		d.split(d.tsv)
		return d.sslTSV(v, &c)
	}
	if rowErr != nil {
		return rowRecordErr, rowErr
	}
	return rowOK, nil
}

func (d *RowDecoder) x509JSON(line []byte) (rowStatus, error) {
	if !d.x509JSONFast(line) {
		rec, err := d.legacyJSONRecord(line) //certchain:coldpath anomalous-line fallback
		if err != nil {
			return rowBadJSON, err
		}
		xr, err := ParseX509Record(rec)
		if err != nil {
			return rowRecordErr, err
		}
		d.x509.fromRecord(xr)
	}
	return d.x509.status()
}

// legacyJSONRecord is the exact fallback: the Record conversion of
// JSONDecoder, counted by why the fast tokenizer gave the line up.
//
//certchain:coldpath anomalous-line fallback
func (d *RowDecoder) legacyJSONRecord(line []byte) (Record, error) {
	rec, err := jsonRecord(line)
	switch {
	case err != nil:
		d.fallbacks[fallbackMalformed]++
	case bytes.IndexByte(line, '\\') >= 0:
		d.fallbacks[fallbackEscape]++
	default:
		d.fallbacks[fallbackShape]++
	}
	return rec, err
}

// jsonSpan parses a scalar string value with Record.Get's sentinel
// semantics: null, the unset and empty sentinels and the empty string all
// yield an empty span. ok=false sends the line to the fallback.
func (t *jsonTok) jsonSpan() (span, bool) {
	switch t.peek() {
	case '"':
		s, ok := t.simpleSpan()
		if !ok {
			return span{}, false
		}
		if v := s.of(t.b); string(v) == UnsetField || string(v) == EmptyField {
			return span{}, true
		}
		return s, true
	case 'n':
		return span{}, t.literal("null")
	}
	return span{}, false
}

// jsonString is jsonSpan interned.
func (d *RowDecoder) jsonString(t *jsonTok) (string, bool) {
	s, ok := t.jsonSpan()
	return d.strs.Bytes(s.of(t.b)), ok
}

// jsonRawString parses a string value into a byte view with Record.Get's
// sentinel semantics (null/unset → nil absent view, empty sentinel → empty
// present view). A value holding simple escapes is resolved into d.esc. The
// view is only valid until the next line.
func (d *RowDecoder) jsonRawString(t *jsonTok) ([]byte, bool) {
	switch t.peek() {
	case '"':
		s, ok := t.simpleString()
		if !ok {
			s, ok = d.unescapeString(t)
		}
		if !ok {
			return nil, false
		}
		if string(s) == UnsetField {
			return nil, true
		}
		if string(s) == EmptyField {
			return s[:0], true
		}
		return s, true
	case 'n':
		return nil, t.literal("null")
	}
	return nil, false
}

// unescapeString parses a string value holding backslash escapes, resolving
// \\ \" \/ \b \f \n \r \t into d.esc exactly as encoding/json does. \u
// escapes, control bytes and invalid UTF-8 return false and send the line to
// the fallback. d.esc is sized to the whole line on a line's first escape:
// unescaping only shrinks text, so later values of the line never regrow it
// under the views handed out before them.
func (d *RowDecoder) unescapeString(t *jsonTok) ([]byte, bool) {
	b := t.b
	if t.i >= len(b) || b[t.i] != '"' {
		return nil, false
	}
	if cap(d.esc) < len(b) {
		d.esc = make([]byte, 0, len(b)) //certchain:coldpath grows to the longest escaped line once
	}
	start := len(d.esc)
	for i := t.i + 1; i < len(b); i++ {
		c := b[i]
		switch {
		case c == '"':
			v := d.esc[start:]
			if !utf8.Valid(v) {
				return nil, false
			}
			t.i = i + 1
			return v, true
		case c < 0x20:
			return nil, false
		case c == '\\':
			if i+1 >= len(b) {
				return nil, false
			}
			i++
			switch b[i] {
			case '\\', '"', '/':
				c = b[i]
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default:
				return nil, false
			}
		}
		d.esc = append(d.esc, c)
	}
	return nil, false
}

// jsonEpoch parses a numeric time value into epoch seconds; null means
// absent.
func (t *jsonTok) jsonEpoch() (f float64, set, ok bool) {
	switch c := t.peek(); {
	case c == '-' || (c >= '0' && c <= '9'):
		f, ok = t.number()
		return f, ok, ok
	case c == 'n':
		return 0, false, t.literal("null")
	}
	return 0, false, false
}

// jsonTime is jsonEpoch as a time.
func (t *jsonTok) jsonTime() (ts time.Time, set, ok bool) {
	f, set, ok := t.jsonEpoch()
	if set {
		ts = epochToTime(f)
	}
	return ts, set, ok
}

// jsonInt parses a numeric value with the legacy float-render/Atoi round
// trip's semantics; null and non-integral values yield 0.
func (d *RowDecoder) jsonInt(t *jsonTok) (int, bool) {
	switch c := t.peek(); {
	case c == '-' || (c >= '0' && c <= '9'):
		f, ok := t.number()
		if !ok {
			return 0, false
		}
		return d.intFromFloat(f), true
	case c == 'n':
		return 0, t.literal("null")
	}
	return 0, false
}

// intFromFloat reproduces jsonValueToField + Record.GetInt: format the
// float and Atoi it. Safe integral floats take the direct path (their
// shortest 'f' rendering is the same integer); everything else replays the
// render/parse pair exactly.
func (d *RowDecoder) intFromFloat(f float64) int {
	if f == math.Trunc(f) && f >= -(1<<53) && f <= 1<<53 {
		return int(f)
	}
	d.scratch = strconv.AppendFloat(d.scratch[:0], f, 'f', -1, 64) //certchain:coldpath rare shape, exact-oracle fallback
	n, _ := parseIntBytes(d.scratch)
	return n
}

func (t *jsonTok) jsonBool() (v, ok bool) {
	switch t.peek() {
	case 't':
		return true, t.literal("true")
	case 'f':
		return false, t.literal("false")
	case 'n':
		return false, t.literal("null")
	}
	return false, false
}

// jsonVector parses an array of plain strings that survive the legacy
// join-then-split round trip unchanged: non-empty, comma-free, non-sentinel
// elements. Anything else (including whole-array sentinel collisions)
// falls back. The result spans the array's text — empty for null and [],
// since the empty vector renders as the empty sentinel: nil.
func (t *jsonTok) jsonVector() (span, bool) {
	switch t.peek() {
	case '[':
	case 'n':
		return span{}, t.literal("null")
	default:
		return span{}, false
	}
	r := mkSpan(t.i, t.i)
	t.i++
	if t.peek() == ']' {
		t.i++
		return span{}, true
	}
	for {
		t.ws()
		el, ok := t.simpleString()
		if !ok || len(el) == 0 || bytes.IndexByte(el, ',') >= 0 ||
			string(el) == UnsetField || string(el) == EmptyField {
			return span{}, false
		}
		switch t.peek() {
		case ',':
			t.i++
		case ']':
			t.i++
			r.hi = uint32(t.i)
			return r, true
		default:
			return span{}, false
		}
	}
}

// sslJSONFast decodes one flat ND-JSON ssl row into v. fastOK=false means
// the line is outside the tokenizer's subset and must be re-parsed through
// the legacy path.
func (d *RowDecoder) sslJSONFast(line []byte, v *sslView) (rowErr error, fastOK bool) {
	t := jsonTok{b: line}
	if t.peek() != '{' {
		return nil, false
	}
	t.i++
	*v = sslView{}
	tsSet := false
	if t.peek() == '}' {
		t.i++
	} else {
	fields:
		for {
			t.ws()
			k, ok := t.simpleString()
			if !ok || t.peek() != ':' {
				return nil, false
			}
			t.i++
			switch sslJSONKey[string(k)] {
			case jkTS:
				v.ts, tsSet, ok = t.jsonEpoch()
			case jkUID:
				v.uid, ok = t.jsonSpan()
			case jkOrigH:
				v.origH, ok = t.jsonSpan()
			case jkOrigP:
				v.origP, ok = d.jsonInt(&t)
			case jkRespH:
				v.respH, ok = t.jsonSpan()
			case jkRespP:
				v.respP, ok = d.jsonInt(&t)
			case jkVersion:
				v.version, ok = t.jsonSpan()
			case jkCipher:
				v.cipher, ok = t.jsonSpan()
			case jkServerName:
				v.serverName, ok = t.jsonSpan()
			case jkResumed:
				v.resumed, ok = t.jsonBool()
			case jkEstablished:
				v.established, ok = t.jsonBool()
			case jkChain:
				v.fuids, ok = t.jsonVector()
			default:
				ok = t.skipValue()
			}
			if !ok {
				return nil, false
			}
			switch t.peek() {
			case ',':
				t.i++
			case '}':
				t.i++
				break fields
			default:
				return nil, false
			}
		}
	}
	t.ws()
	if t.i != len(t.b) {
		return nil, false
	}
	v.fuids = compactVector(line, v.fuids)
	if !tsSet {
		return errSSLMissingTS, true
	}
	if v.uid.hi == v.uid.lo {
		return errSSLMissingUID, true
	}
	return nil, true
}

// x509JSONFast decodes one flat ND-JSON x509 row into d.x509; false routes
// the line to the legacy fallback.
func (d *RowDecoder) x509JSONFast(line []byte) bool {
	t := jsonTok{b: line}
	if t.peek() != '{' {
		return false
	}
	t.i++
	d.x509 = X509Row{}
	d.esc = d.esc[:0]
	row := &d.x509
	var (
		ok  bool
		san span
	)
	if t.peek() == '}' {
		t.i++
	} else {
	fields:
		for {
			t.ws()
			k, okK := t.simpleString()
			if !okK || t.peek() != ':' {
				return false
			}
			t.i++
			switch x509JSONKey[string(k)] {
			case jkTS:
				if row.ts, row.tsOK, ok = t.jsonTime(); !ok {
					return false
				}
			case jkID:
				if row.id, ok = d.jsonRawString(&t); !ok {
					return false
				}
			case jkSerial:
				if row.serial, ok = d.jsonRawString(&t); !ok {
					return false
				}
			case jkSubject:
				if row.subject, ok = d.jsonRawString(&t); !ok {
					return false
				}
			case jkIssuer:
				if row.issuer, ok = d.jsonRawString(&t); !ok {
					return false
				}
			case jkNVB:
				if row.nvb, _, ok = t.jsonTime(); !ok {
					return false
				}
			case jkNVA:
				if row.nva, _, ok = t.jsonTime(); !ok {
					return false
				}
			case jkKeyAlg:
				if _, ok = d.jsonString(&t); !ok {
					return false
				}
			case jkSigAlg:
				if row.sigAlg, ok = d.jsonString(&t); !ok {
					return false
				}
			case jkKeyType:
				if row.keyType, ok = d.jsonString(&t); !ok {
					return false
				}
			case jkKeyLen:
				if row.keyLen, ok = d.jsonInt(&t); !ok {
					return false
				}
			case jkBC:
				if t.peek() == 'n' {
					if !t.literal("null") {
						return false
					}
				} else {
					if row.bcVal, ok = t.jsonBool(); !ok {
						return false
					}
					row.bcSet = true
				}
			case jkSAN:
				if san, ok = t.jsonVector(); !ok {
					return false
				}
			case jkX509Version:
				if _, ok = d.jsonInt(&t); !ok {
					return false
				}
			default:
				if !t.skipValue() {
					return false
				}
			}
			switch t.peek() {
			case ',':
				t.i++
			case '}':
				t.i++
				break fields
			default:
				return false
			}
		}
	}
	t.ws()
	if t.i != len(t.b) {
		return false
	}
	row.san = d.vector(compactVector(line, san).of(line))
	return true
}
