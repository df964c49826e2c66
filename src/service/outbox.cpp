#include "service/outbox.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace ao::service {

SessionOutbox::SessionOutbox(std::ostream& sink, std::size_t capacity)
    : sink_(&sink), capacity_(std::max<std::size_t>(1, capacity)) {
  writer_ = std::thread([this] { writer_loop(); });
}

SessionOutbox::~SessionOutbox() { close(); }

void SessionOutbox::writer_loop() {
  for (;;) {
    Item item;
    bool flush_now = false;
    {
      std::unique_lock lock(mutex_);
      items_.wait(lock, [&] { return !queue_.empty() || closing_; });
      if (queue_.empty()) {
        return;  // closing and fully drained
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      // Flush when the burst is over (or on every control line — a protocol
      // event is a turn the client must see), batching the data torrent.
      flush_now = queue_.empty() || item.control;
      space_.notify_all();
    }
    // The write happens OUTSIDE the lock: a client that stopped reading
    // blocks this thread in the socket write, while cancel()/stats() (and
    // producers, until the queue fills) stay responsive.
    *sink_ << item.line << '\n';
    if (flush_now) {
      sink_->flush();
    }
  }
}

void SessionOutbox::push_data(std::string line) {
  std::unique_lock lock(mutex_);
  if (cancelled_) {
    ++dropped_;
    return;
  }
  if (queue_.size() >= capacity_) {
    ++blocked_;  // the backpressure case: this producer now waits
    space_.wait(lock, [&] {
      return queue_.size() < capacity_ || cancelled_ || closing_;
    });
    if (cancelled_) {
      ++dropped_;
      return;
    }
  }
  queue_.push_back({std::move(line), /*control=*/false});
  high_water_ = std::max(high_water_, queue_.size());
  items_.notify_one();
}

void SessionOutbox::push_control(std::string line) {
  std::lock_guard lock(mutex_);
  // Control lines ignore the capacity: they are rare, bounded by the
  // protocol (events + one terminal reply), and must survive cancel.
  queue_.push_back({std::move(line), /*control=*/true});
  high_water_ = std::max(high_water_, queue_.size());
  items_.notify_one();
}

void SessionOutbox::cancel() {
  std::lock_guard lock(mutex_);
  cancelled_ = true;
  const std::size_t before = queue_.size();
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [](const Item& item) { return !item.control; }),
               queue_.end());
  dropped_ += before - queue_.size();
  space_.notify_all();  // unblock producers stuck behind a stalled client
  items_.notify_one();
}

void SessionOutbox::close() {
  // Only the owning session thread (and its destructor) calls close, so the
  // joinable() check is race-free.
  {
    std::lock_guard lock(mutex_);
    closing_ = true;
    space_.notify_all();
    items_.notify_one();
  }
  if (writer_.joinable()) {
    writer_.join();
  }
}

bool SessionOutbox::cancelled() const {
  std::lock_guard lock(mutex_);
  return cancelled_;
}

SessionOutbox::Stats SessionOutbox::stats() const {
  std::lock_guard lock(mutex_);
  return {capacity_, high_water_, blocked_, dropped_};
}

OutboxStream::OutboxStream(SessionOutbox& outbox)
    : std::ostream(nullptr), buf_(outbox) {
  rdbuf(&buf_);
}

std::ostream::int_type OutboxStream::LineBuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  if (traits_type::to_char_type(ch) == '\n') {
    deliver();
  } else {
    line_.push_back(traits_type::to_char_type(ch));
  }
  return ch;
}

std::streamsize OutboxStream::LineBuf::xsputn(const char* s,
                                              std::streamsize n) {
  // Each run up to the next newline is appended in one call.
  const char* const end = s + n;
  while (s != end) {
    const auto* newline = static_cast<const char*>(
        std::memchr(s, '\n', static_cast<std::size_t>(end - s)));
    if (newline == nullptr) {
      line_.append(s, end);
      break;
    }
    line_.append(s, newline);
    deliver();
    s = newline + 1;
  }
  return n;
}

void OutboxStream::LineBuf::deliver() {
  const bool data = line_.rfind("record ", 0) == 0 ||
                    line_.rfind("progress ", 0) == 0;
  if (data) {
    outbox_->push_data(std::move(line_));
  } else {
    outbox_->push_control(std::move(line_));
  }
  line_.clear();
}

}  // namespace ao::service
