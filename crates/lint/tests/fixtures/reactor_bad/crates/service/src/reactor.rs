use std::time::Duration;

fn pace() {
    std::thread::sleep(Duration::from_millis(1));
}

fn next_completion(completions_rx: &Receiver<Completion>) -> Option<Completion> {
    completions_rx.recv().ok()
}

fn wait_done(result: &OrderedMutex<bool>, done: &Condvar) {
    let guard = result.lock();
    done.wait(guard);
}

fn go_blocking(stream: &mut TcpStream) {
    stream.set_nonblocking(false).ok();
    let _ = stream.write_all(b"hello");
}
