package dead

// Uncalled has no caller anywhere.
func Uncalled() {}

// TestOnly is called only from a _test.go file, which does not count.
func TestOnly() {}

// BenchOnly is called only from bench/, which counts.
func BenchOnly() {}

// Sibling is called from another package, through an import.
func Sibling() {}

// InPackage is called bare from its own package.
func InPackage() {}

// Shadowed is named bare in another package, where the name is not this
// package's, so that does not count.
func Shadowed() {}

// T is named by its own methods' receivers and by Sibling's caller.
type T struct{}

// Used is called through a selector.
func (T) Used() {}

// Unused has no caller anywhere.
func (T) Unused() {}

func helper() T {
	InPackage()
	return T{}
}
