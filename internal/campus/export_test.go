package campus

import "certchains/internal/zeek"

// ExpandConns emits the ssl.log rows one observation stands for, in
// connection order: at most maxConns of them (0 means all o.Conns), their
// timestamps spread evenly over [o.First, o.Last], client addresses rotating
// through o.ClientIPs. fuids are the chain's x509.log ids and *uid numbers
// connections across observations. emit is handed one record, refilled for
// every row: it must not keep it.
func ExpandConns(o *Observation, fuids []string, maxConns int64, uid *int, emit func(*zeek.SSLRecord) error) error {
	rows := newConnRows(o, fuids, maxConns)
	var r zeek.SSLRecord
	for i := int64(0); i < rows.n; i++ {
		*uid++
		rows.row(i, *uid, &r)
		if err := emit(&r); err != nil {
			return err
		}
	}
	return nil
}
