package workload

// SpecHighNames returns the spec-high application list.
func SpecHighNames() []string { return append([]string(nil), specHigh...) }
