use std::time::Duration;

fn next_completion(completions_rx: &Receiver<Completion>) -> Option<Completion> {
    completions_rx.recv_timeout(Duration::from_micros(500)).ok()
}

fn drain_registrations(registrations: &Receiver<TcpStream>) {
    while let Ok(stream) = registrations.try_recv() {
        adopt(stream);
    }
}

fn any_ranked_lock_is_fine(shared: &Shared) -> usize {
    let cache = shared.cache.lock();
    cache.len()
}

fn shutdown_pace() {
    // lint:allow(reactor-discipline, deliberate pacing: the sweep loop has exited and this nap only bounds busy-waiting while final frames flush)
    std::thread::sleep(Duration::from_millis(1));
}

fn pump(stream: &mut TcpStream, buf: &mut Vec<u8>) -> usize {
    stream.set_nonblocking(true).ok();
    stream.read(buf.as_mut_slice()).unwrap_or(0)
}
