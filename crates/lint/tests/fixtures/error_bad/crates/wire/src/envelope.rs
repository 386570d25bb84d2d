pub enum ErrorCode {
    Malformed,
    Overloaded,
}
