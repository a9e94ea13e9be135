package core

// A key spelled by hand beside keys.go is still a raw literal.
const flushKey = "/local/domain/1/flush_now" // want `raw store path literal`
