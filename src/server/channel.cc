#include "server/channel.h"

#include <algorithm>
#include <string>

#include "util/failpoint.h"

namespace deepaqp::server {

bool ChannelProducer::CanPush() const {
  return error_.ok() && !final_pushed_ && unacked_.size() < kChannelWindow &&
         stats_.buffered_bytes < kChannelMaxBufferedBytes;
}

util::Status ChannelProducer::Push(std::vector<uint8_t> payload, bool final) {
  if (!error_.ok()) return error_;
  if (final_pushed_) {
    return util::Status::FailedPrecondition(
        "channel " + std::to_string(channel_) +
        ": push after final frame");
  }
  if (unacked_.size() >= kChannelWindow) {
    return util::Status::FailedPrecondition(
        "channel " + std::to_string(channel_) + ": window full (" +
        std::to_string(kChannelWindow) + " unacked frames)");
  }
  if (stats_.buffered_bytes >= kChannelMaxBufferedBytes) {
    return util::Status::FailedPrecondition(
        "channel " + std::to_string(channel_) + ": replay buffer full (" +
        std::to_string(stats_.buffered_bytes) + " unacked bytes)");
  }
  if (util::FailpointTriggered("server/channel_send", next_seq())) {
    error_ = util::FailpointError("server/channel_send");
    return error_;
  }
  stats_.buffered_bytes += payload.size();
  stats_.peak_buffered_bytes =
      std::max(stats_.peak_buffered_bytes, stats_.buffered_bytes);
  unacked_.push_back({std::move(payload), final});
  final_pushed_ = final;
  return util::Status::OK();
}

std::vector<DataFrame> ChannelProducer::PollSend() {
  std::vector<DataFrame> out;
  if (!error_.ok()) return out;
  for (; next_send_ < next_seq(); ++next_send_) {
    const Pending& p = unacked_[next_send_ - acked_];
    out.push_back({channel_, next_send_, p.final, p.payload});
    ++stats_.transmissions;
  }
  return out;
}

void ChannelProducer::OnAck(const AckFrame& ack) {
  if (!error_.ok()) return;
  if (ack.cumulative <= acked_) {
    ++stats_.stale_acks;
    return;
  }
  if (ack.cumulative > next_seq()) {
    error_ = util::Status::InvalidArgument(
        "channel " + std::to_string(channel_) + ": ack of seq " +
        std::to_string(ack.cumulative - 1) + " but only " +
        std::to_string(next_seq()) + " frames were pushed");
    return;
  }
  for (; acked_ < ack.cumulative; ++acked_) {
    stats_.buffered_bytes -= unacked_.front().payload.size();
    unacked_.pop_front();
  }
  // A resumed consumer may ack frames the rewound cursor has not re-sent.
  next_send_ = std::max(next_send_, acked_);
}

void ChannelProducer::ReplayUnacked() {
  if (!error_.ok()) return;
  stats_.resume_replays += next_send_ - acked_;
  next_send_ = acked_;
}

util::Status ChannelConsumer::OnData(const DataFrame& frame) {
  ++stats_.frames;
  if (frame.seq < next_expected_) {
    ++stats_.duplicates;
    return util::Status::OK();
  }
  if (frame.seq > next_expected_ || finished_) {
    return util::Status::InvalidArgument(
        "channel " + std::to_string(channel_) + ": frame seq " +
        std::to_string(frame.seq) +
        (finished_ ? " after the final frame"
                   : " ahead of expected seq " +
                         std::to_string(next_expected_)) +
        " on an ordered stream");
  }
  ready_.push_back(frame.payload);
  ++stats_.delivered;
  ++next_expected_;
  finished_ = frame.final;
  return util::Status::OK();
}

std::vector<std::vector<uint8_t>> ChannelConsumer::TakeDelivered() {
  std::vector<std::vector<uint8_t>> out;
  out.swap(ready_);
  return out;
}

}  // namespace deepaqp::server
