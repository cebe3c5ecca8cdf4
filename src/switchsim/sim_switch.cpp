#include "switchsim/sim_switch.h"

#include <thread>

namespace sdnshield::sim {

void SimSwitch::setControlChannelDelay(std::chrono::microseconds delay) {
  shutdownControlChannel();
  controlDelay_ = delay;
  if (delay.count() > 0) {
    {
      std::lock_guard lock(channelMutex_);
      channelStop_ = false;
    }
    channelWorker_ = std::thread([this] { channelRun(); });
  }
}

void SimSwitch::shutdownControlChannel() {
  {
    std::lock_guard lock(channelMutex_);
    channelStop_ = true;
  }
  channelCv_.notify_all();
  if (channelWorker_.joinable()) channelWorker_.join();
  controlDelay_ = std::chrono::microseconds{0};
}

void SimSwitch::channelSend(std::function<void()> apply) {
  {
    std::lock_guard lock(channelMutex_);
    channelQueue_.push_back(ChannelMessage{
        std::chrono::steady_clock::now() + controlDelay_, std::move(apply)});
  }
  channelCv_.notify_one();
}

void SimSwitch::channelRun() {
  std::unique_lock lock(channelMutex_);
  while (true) {
    channelCv_.wait(lock, [this] { return channelStop_ || !channelQueue_.empty(); });
    if (channelStop_) return;
    ChannelMessage message = std::move(channelQueue_.front());
    channelQueue_.pop_front();
    // Pipelined propagation: wait until this message's own deadline.
    while (!channelStop_ &&
           std::chrono::steady_clock::now() < message.due) {
      channelCv_.wait_until(lock, message.due);
    }
    if (channelStop_) return;
    lock.unlock();
    message.apply();
    lock.lock();
  }
}

void SimSwitch::advanceTime(std::uint32_t seconds) {
  std::vector<of::FlowEntry> expired;
  {
    std::lock_guard lock(mutex_);
    expired = table_.tick(seconds);
  }
  if (controller_ == nullptr) return;
  for (const of::FlowEntry& entry : expired) {
    of::FlowRemoved removed;
    removed.dpid = dpid_;
    removed.match = entry.match;
    removed.priority = entry.priority;
    removed.cookie = entry.cookie;
    if (controlDelay_.count() > 0) {
      channelSend([this, removed] { controller_->onFlowRemoved(removed); });
    } else {
      controller_->onFlowRemoved(removed);
    }
  }
}

void SimSwitch::punt(const of::PacketIn& packetIn) {
  if (controller_ != nullptr) controller_->onPacketIn(packetIn);
}

void SimSwitch::expireFlows(const of::FlowMatch& match) {
  of::FlowMod expire;
  expire.command = of::FlowModCommand::kDelete;
  expire.match = match;
  std::lock_guard lock(mutex_);
  table_.apply(expire);
}

void SimSwitch::connectPort(of::PortNo port, PacketSink sink) {
  std::lock_guard lock(mutex_);
  ports_[port] = std::move(sink);
  portStats_.try_emplace(port, of::PortStats{port, 0, 0, 0, 0});
}

void SimSwitch::receivePacket(of::PortNo inPort, const of::Packet& packet) {
  of::ActionList actions;
  bool miss = false;
  std::size_t bytes = packet.serialize().size();
  {
    std::lock_guard lock(mutex_);
    auto& stats = portStats_[inPort];
    stats.port = inPort;
    ++stats.rxPackets;
    stats.rxBytes += bytes;
    const of::FlowEntry* entry = table_.lookup(packet.fields(inPort), bytes);
    if (entry != nullptr) {
      actions = entry->actions;
    } else {
      miss = true;
    }
  }
  if (miss) {
    of::PacketIn packetIn;
    packetIn.dpid = dpid_;
    packetIn.inPort = inPort;
    packetIn.reason = of::PacketInReason::kNoMatch;
    packetIn.packet = packet;
    {
      std::lock_guard lock(mutex_);
      ++packetIns_;
    }
    if (controlDelay_.count() > 0) {
      channelSend([this, packetIn] { punt(packetIn); });
    } else {
      punt(packetIn);
    }
    return;
  }
  executeActions(actions, inPort, packet);
}

ctrl::ApiResult SimSwitch::applyFlowMod(const of::FlowMod& mod) {
  if (controlDelay_.count() > 0) {
    // Asynchronous send, as over a real control channel: the caller does
    // not wait for the rule to be applied. Errors would come back as error
    // messages; the optimistic success mirrors that.
    channelSend([this, mod] {
      std::lock_guard lock(mutex_);
      ++flowMods_;
      table_.apply(mod);
    });
    return ctrl::ApiResult::success();
  }
  std::lock_guard lock(mutex_);
  ++flowMods_;
  if (!table_.apply(mod)) {
    return ctrl::ApiResult::failure(ctrl::ApiErrc::kTableFull,
                                    "flow table full");
  }
  return ctrl::ApiResult::success();
}

std::vector<ctrl::ApiResult> SimSwitch::applyFlowMods(
    const std::vector<of::FlowMod>& mods) {
  if (controlDelay_.count() > 0) {
    // As with applyFlowMod: async over the emulated channel, optimistic.
    channelSend([this, mods] {
      std::lock_guard lock(mutex_);
      flowMods_ += mods.size();
      table_.applyBatch(mods);
    });
    return std::vector<ctrl::ApiResult>(mods.size());
  }
  std::vector<bool> applied;
  {
    std::lock_guard lock(mutex_);
    flowMods_ += mods.size();
    applied = table_.applyBatch(mods);
  }
  std::vector<ctrl::ApiResult> out;
  out.reserve(applied.size());
  for (bool ok : applied) {
    out.push_back(ok ? ctrl::ApiResult::success()
                     : ctrl::ApiResult::failure(ctrl::ApiErrc::kTableFull,
                                                "flow table full"));
  }
  return out;
}

ctrl::ApiResult SimSwitch::transmitPacket(const of::PacketOut& packetOut) {
  if (controlDelay_.count() > 0) {
    channelSend([this, packetOut] {
      executeActions(packetOut.actions, packetOut.inPort, packetOut.packet);
    });
    return ctrl::ApiResult::success();
  }
  executeActions(packetOut.actions, packetOut.inPort, packetOut.packet);
  return ctrl::ApiResult::success();
}

ctrl::ApiResponse<std::vector<of::FlowEntry>> SimSwitch::dumpFlows() const {
  std::lock_guard lock(mutex_);
  return ctrl::ApiResponse<std::vector<of::FlowEntry>>::success(
      table_.entries());
}

of::StatsReply SimSwitch::localStats(const of::StatsRequest& request) const {
  of::StatsReply reply;
  reply.level = request.level;
  reply.dpid = dpid_;
  std::lock_guard lock(mutex_);
  switch (request.level) {
    case of::StatsLevel::kFlow:
      for (const of::FlowEntry& entry : table_.select(request.match)) {
        reply.flows.push_back(of::FlowStatsEntry{entry.match, entry.priority,
                                                 entry.packetCount,
                                                 entry.byteCount, entry.cookie});
      }
      break;
    case of::StatsLevel::kPort:
      for (const auto& [_, stats] : portStats_) reply.ports.push_back(stats);
      break;
    case of::StatsLevel::kSwitch: {
      of::TableStats table = table_.stats();
      reply.switchStats = of::SwitchStats{dpid_, table.activeEntries,
                                          table.lookupCount,
                                          table.matchedCount};
      break;
    }
  }
  return reply;
}

ctrl::ApiResponse<of::StatsReply> SimSwitch::queryStats(
    const of::StatsRequest& request) const {
  return ctrl::ApiResponse<of::StatsReply>::success(localStats(request));
}

std::size_t SimSwitch::flowCount() const {
  std::lock_guard lock(mutex_);
  return table_.size();
}

void SimSwitch::executeActions(const of::ActionList& actions,
                               of::PortNo inPort, of::Packet packet) {
  for (const of::Action& action : actions) {
    if (const auto* set = std::get_if<of::SetFieldAction>(&action)) {
      switch (set->field) {
        case of::MatchField::kEthSrc:
          packet.eth.src = set->macValue;
          break;
        case of::MatchField::kEthDst:
          packet.eth.dst = set->macValue;
          break;
        case of::MatchField::kIpSrc:
          if (packet.ipv4) packet.ipv4->src = set->ipValue;
          break;
        case of::MatchField::kIpDst:
          if (packet.ipv4) packet.ipv4->dst = set->ipValue;
          break;
        case of::MatchField::kTpSrc:
          if (packet.tcp) {
            packet.tcp->srcPort = static_cast<std::uint16_t>(set->intValue);
          } else if (packet.udp) {
            packet.udp->srcPort = static_cast<std::uint16_t>(set->intValue);
          }
          break;
        case of::MatchField::kTpDst:
          if (packet.tcp) {
            packet.tcp->dstPort = static_cast<std::uint16_t>(set->intValue);
          } else if (packet.udp) {
            packet.udp->dstPort = static_cast<std::uint16_t>(set->intValue);
          }
          break;
        default:
          break;  // Other rewrites not modelled.
      }
    } else if (const auto* output = std::get_if<of::OutputAction>(&action)) {
      if (output->port == of::ports::kController) {
        of::PacketIn packetIn;
        packetIn.dpid = dpid_;
        packetIn.inPort = inPort;
        packetIn.reason = of::PacketInReason::kAction;
        packetIn.packet = packet;
        punt(packetIn);
      } else if (output->port == of::ports::kFlood) {
        std::vector<of::PortNo> floodPorts;
        {
          std::lock_guard lock(mutex_);
          for (const auto& [port, _] : ports_) {
            if (port != inPort) floodPorts.push_back(port);
          }
        }
        for (of::PortNo port : floodPorts) deliver(port, inPort, packet);
      } else {
        deliver(output->port, inPort, packet);
      }
    }
    // DropAction: nothing to do.
  }
}

void SimSwitch::deliver(of::PortNo outPort, of::PortNo /*inPort*/,
                        const of::Packet& packet) {
  PacketSink sink;
  {
    std::lock_guard lock(mutex_);
    auto it = ports_.find(outPort);
    if (it == ports_.end()) return;
    sink = it->second;
    auto& stats = portStats_[outPort];
    stats.port = outPort;
    ++stats.txPackets;
    stats.txBytes += packet.serialize().size();
  }
  if (sink) sink(packet);
}

}  // namespace sdnshield::sim
