package llstar

// RuntimeTracer returns the tracer p's interpreter emits to after
// normalization (nil when tracing is off).
func RuntimeTracer(p *Parser) Tracer { return p.ip.Tracer() }
