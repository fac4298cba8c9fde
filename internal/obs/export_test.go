package obs

// Hooks for BenchmarkAppendFloat, which records its stream through
// internal/core and so lives in the external test package.
var (
	AppendFloat        = appendFloat
	AppendFloatStrconv = appendFloatStrconv
)

// FloatEncoder formats floats as the JSONL encoder does: through its
// memo, with appendFloat on a miss.
type FloatEncoder struct{ e encoder }

// Append appends x as the encoder writes a field's value.
func (f *FloatEncoder) Append(b []byte, x float64) []byte { return f.e.float(b, "", x) }
