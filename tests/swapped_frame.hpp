// A test Fabric that swaps one frame on its way: source `victim`'s nth
// frame on one of its links is replaced by a given frame. Shared by the
// shape-check tests of the collect sites (test_distributed.cpp) and of
// the pipelines' receives (test_core.cpp).
#pragma once

#include <cstddef>
#include <utility>

#include "net/channel.hpp"

namespace ekm::test {

enum class Link { kUplink, kDownlink };

// A Network whose source `victim` has the nth frame on one of its links
// replaced by `frame` on the way.
class SwappedFrame final : public Fabric {
 public:
  SwappedFrame(std::size_t sources, std::size_t victim, Link link,
               std::size_t nth, Message frame)
      : net_(sources),
        victim_(victim),
        link_(link),
        port_(link == Link::kUplink ? net_.uplink(victim)
                                    : net_.downlink(victim),
              nth, std::move(frame)) {}
  [[nodiscard]] std::size_t num_sources() const override {
    return net_.num_sources();
  }
  [[nodiscard]] Port& uplink(std::size_t source) override {
    return swapped(source, Link::kUplink) ? static_cast<Port&>(port_)
                                          : net_.uplink(source);
  }
  [[nodiscard]] Port& downlink(std::size_t source) override {
    return swapped(source, Link::kDownlink) ? static_cast<Port&>(port_)
                                            : net_.downlink(source);
  }

 private:
  [[nodiscard]] bool swapped(std::size_t source, Link link) const {
    return source == victim_ && link == link_;
  }

  class SwapPort final : public Port {
   public:
    SwapPort(Port& inner, std::size_t nth, Message frame)
        : inner_(inner), nth_(nth), frame_(std::move(frame)) {}
    void send(Message msg) override {
      inner_.send(++sent_ == nth_ ? frame_ : std::move(msg));
    }
    [[nodiscard]] bool has_pending() const override {
      return inner_.has_pending();
    }
    [[nodiscard]] Message receive() override { return inner_.receive(); }
    [[nodiscard]] const TrafficLedger& ledger() const override {
      return inner_.ledger();
    }

   private:
    Port& inner_;
    std::size_t nth_;
    Message frame_;
    std::size_t sent_ = 0;
  };

  Network net_;
  std::size_t victim_;
  Link link_;
  SwapPort port_;
};

}  // namespace ekm::test
