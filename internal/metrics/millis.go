package metrics

import (
	"encoding/json"
	"time"
)

// Millis is a time.Duration that crosses the wire as (possibly fractional)
// milliseconds, the unit of every *_ms field in the serving JSON. Snapshot
// types declare such a field as Millis with the wire's json tag, so the
// conversion is written here and nowhere else; omitempty on a Millis field
// is keyed on the zero duration.
type Millis time.Duration

// String prints like the duration it holds.
func (m Millis) String() string { return time.Duration(m).String() }

// MarshalJSON implements json.Marshaler.
func (m Millis) MarshalJSON() ([]byte, error) {
	return json.Marshal(float64(m) / float64(time.Millisecond))
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Millis) UnmarshalJSON(b []byte) error {
	var ms float64
	if err := json.Unmarshal(b, &ms); err != nil {
		return err
	}
	*m = Millis(ms * float64(time.Millisecond))
	return nil
}
