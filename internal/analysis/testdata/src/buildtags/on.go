//go:build race

// Package buildtags declares one constant twice, under opposite build
// constraints: the loader must see exactly the file a plain build would.
package buildtags

const Tagged = true
