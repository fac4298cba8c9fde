package experiments

import "fmt"

// pct renders a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
