package rtd

// The client's response readers, for the external strict-prefix tests.
var (
	DecodeResponse     = decodeResponse
	DecodeResponseFrom = decodeResponseFrom
)
