"""JavaEmailServer stand-in: ten releases, 1.2.1 through 1.4.

The release history reproduces the paper's §4.3 narrative:

* **1.2.2, 1.2.4, 1.3.1** — method-body-only fixes (supported even by
  E&C-style systems);
* **1.2.3** — a field-heavy release (class updates across several classes);
* **1.3** — the configuration rework: deletes the GUI admin classes, adds a
  file-based configuration system, and **changes the processors' infinite
  ``run()`` loops** — since those threads never leave ``run()``, no DSU
  safe point is ever reached and the update **aborts** (the paper's first
  unsupported update);
* **1.3.2** — the paper's running example (Figure 2/3): ``User.
  forwardAddresses`` changes from ``string[]`` to ``EmailAddress[]`` with a
  custom object transformer; ``SMTPSender.run`` and ``Pop3Processor.run``
  are *indirectly* changed (unchanged bytecode, but they read ``User``
  fields) and are always on stack — **OSR** rescues the update;
* **1.3.3** — small fixes plus a ``Spool`` bookkeeping field; the spool is
  referenced from the sender's loop, so OSR is used again (the paper also
  reports OSR for this update);
* **1.3.4, 1.4** — feature releases with field additions and one method
  signature change.

Architecture: three long-lived threads — ``SMTPProcessor`` (port 2525),
``Pop3Processor`` (port 1110), each a single-threaded accept-and-handle
loop, and ``SMTPSender`` (spool delivery). ``main`` starts them and
returns, so it never blocks an update.
"""

SMTP_PORT = 2525
POP3_PORT = 1110

# ---------------------------------------------------------------------------
# stable fragments (identical in every release)

_MAIN = """
class JavaEmailServer {
    static void main() {
        ConfigurationManager.load();
        Sys.spawn(new SMTPProcessor());
        Sys.spawn(new Pop3Processor());
        Sys.spawn(new SMTPSender());
        Sys.print("jes started");
    }
}
"""

_LOG = """
class Log {
    static int entries;
    static void note(string line) {
        Log.entries = Log.entries + 1;
    }
}
"""

_DEBUG_121 = """
class Debug {
    static bool enabled = true;
    static int level;
}
"""

# ---------------------------------------------------------------------------
# 1.2.1 baseline

_USER_121 = """
class User {
    string username;
    string password;
    string[] forwardAddresses;
    User(string u, string p) {
        this.username = u;
        this.password = p;
    }
    string getUsername() { return username; }
    bool checkPassword(string p) { return password == p; }
    string[] getForwardedAddresses() { return forwardAddresses; }
    void setForwardedAddresses(string[] f) { this.forwardAddresses = f; }
}
"""

_CONFIG_121 = """
class ConfigurationManager {
    static User[] users;
    static string domain;
    static void load() {
        ConfigurationManager.domain = "example.org";
        ConfigurationManager.users = new User[3];
        ConfigurationManager.users[0] = loadUser("alice", "apass", "");
        ConfigurationManager.users[1] = loadUser("bob", "bpass", "alice@example.org");
        ConfigurationManager.users[2] = loadUser("carol", "cpass", "");
        GUIAdmin.render();
    }
    static User loadUser(string name, string pass, string forwards) {
        User user = new User(name, pass);
        if (forwards != "") {
            string[] f = forwards.split(",");
            user.setForwardedAddresses(f);
        }
        return user;
    }
    static User getUser(string name) {
        for (int i = 0; i < ConfigurationManager.users.length; i = i + 1) {
            if (ConfigurationManager.users[i].getUsername() == name) {
                return ConfigurationManager.users[i];
            }
        }
        return null;
    }
}
class GUIAdmin {
    static int refreshes;
    static void render() {
        GUIAdmin.refreshes = GUIAdmin.refreshes + 1;
    }
}
class SetupWizard {
    static bool completed;
    static void start() { SetupWizard.completed = true; }
}
"""

_MESSAGE_121 = """
class Message {
    string sender;
    string recipient;
    string body;
    Message(string s, string r, string b) {
        this.sender = s;
        this.recipient = r;
        this.body = b;
    }
}
class Spool {
    static Message[] queue;
    static int head;
    static int tail;
    static void init() {
        Spool.queue = new Message[64];
        Spool.head = 0;
        Spool.tail = 0;
    }
    static void put(Message m) {
        if (Spool.queue == null) { Spool.init(); }
        Spool.queue[Spool.tail % 64] = m;
        Spool.tail = Spool.tail + 1;
    }
    static Message take() {
        if (Spool.queue == null) { Spool.init(); }
        if (Spool.head == Spool.tail) { return null; }
        Message m = Spool.queue[Spool.head % 64];
        Spool.head = Spool.head + 1;
        return m;
    }
}
class MailStore {
    static Message[] messages;
    static int count;
    static void init() {
        MailStore.messages = new Message[128];
        MailStore.count = 0;
    }
    static void deposit(Message m) {
        if (MailStore.messages == null) { MailStore.init(); }
        MailStore.messages[MailStore.count] = m;
        MailStore.count = MailStore.count + 1;
    }
    static int countFor(string user) {
        if (MailStore.messages == null) { MailStore.init(); }
        int n = 0;
        for (int i = 0; i < MailStore.count; i = i + 1) {
            if (MailStore.messages[i] != null && MailStore.messages[i].recipient == user) {
                n = n + 1;
            }
        }
        return n;
    }
    static Message messageFor(string user, int index) {
        if (MailStore.messages == null) { MailStore.init(); }
        int n = 0;
        for (int i = 0; i < MailStore.count; i = i + 1) {
            Message m = MailStore.messages[i];
            if (m != null && m.recipient == user) {
                n = n + 1;
                if (n == index) { return m; }
            }
        }
        return null;
    }
    static void remove(string user, int index) {
        if (MailStore.messages == null) { MailStore.init(); }
        int n = 0;
        for (int i = 0; i < MailStore.count; i = i + 1) {
            Message m = MailStore.messages[i];
            if (m != null && m.recipient == user) {
                n = n + 1;
                if (n == index) { MailStore.messages[i] = null; return; }
            }
        }
    }
}
"""

# The processors' run() loops read a User field (the authenticated user of
# the finished session) so their compiled code bakes User's layout: a class
# update to User makes them category-2, which is what forces OSR in 1.3.2.
_SMTP_PROC_121 = """
class SMTPProcessor {
    void run() {
        int lfd = Net.listen(2525);
        while (true) {
            int fd = Net.accept(lfd);
            User last = handleConnection(fd);
            if (Debug.enabled && last != null) { Log.note(last.username); }
        }
    }
    User handleConnection(int fd) {
        SmtpSession session = new SmtpSession(fd);
        session.handle();
        Net.close(fd);
        return session.authenticated;
    }
}
"""

_SMTP_SESSION_121 = """
class SmtpSession {
    int fd;
    string sender;
    string recipient;
    User authenticated;
    SmtpSession(int fd0) { this.fd = fd0; }
    void handle() {
        Net.write(fd, "220 jes smtp\\r\\n");
        bool open = true;
        while (open) {
            string line = Net.readLine(fd);
            if (line == null) { open = false; }
            else { open = command(line); }
        }
    }
    bool command(string line) {
        string upper = line.toUpperCase();
        if (upper.startsWith("HELO")) {
            Net.write(fd, "250 hello\\r\\n");
            return true;
        }
        if (upper.startsWith("MAIL FROM:")) {
            this.sender = addressOf(line);
            Net.write(fd, "250 ok\\r\\n");
            return true;
        }
        if (upper.startsWith("RCPT TO:")) {
            this.recipient = addressOf(line);
            Net.write(fd, "250 ok\\r\\n");
            return true;
        }
        if (upper.startsWith("DATA")) {
            Net.write(fd, "354 end with .\\r\\n");
            return readBody();
        }
        if (upper.startsWith("QUIT")) {
            Net.write(fd, "221 bye\\r\\n");
            return false;
        }
        Net.write(fd, "500 unknown\\r\\n");
        return true;
    }
    string addressOf(string line) {
        int lt = line.indexOf("<");
        int gt = line.indexOf(">");
        if (lt >= 0 && gt > lt) { return line.substring(lt + 1, gt); }
        int colon = line.indexOf(":");
        return line.substring(colon + 1).trim();
    }
    bool readBody() {
        string body = "";
        while (true) {
            string line = Net.readLine(fd);
            if (line == null) { return false; }
            if (line == ".") {
                Spool.put(new Message(sender, recipient, body));
                Net.write(fd, "250 queued\\r\\n");
                return true;
            }
            body = body + line + "\\n";
        }
    }
}
"""

_POP_PROC_121 = """
class Pop3Processor {
    void run() {
        int lfd = Net.listen(1110);
        while (true) {
            int fd = Net.accept(lfd);
            User last = handleConnection(fd);
            if (Debug.enabled && last != null) { Log.note(last.username); }
        }
    }
    User handleConnection(int fd) {
        Pop3Session session = new Pop3Session(fd);
        session.handle();
        Net.close(fd);
        return session.user;
    }
}
"""

_POP_SESSION_121 = """
class Pop3Session {
    int fd;
    User user;
    string pendingUser;
    Pop3Session(int fd0) { this.fd = fd0; }
    void handle() {
        Net.write(fd, "+OK jes pop3\\r\\n");
        bool open = true;
        while (open) {
            string line = Net.readLine(fd);
            if (line == null) { open = false; }
            else { open = command(line); }
        }
    }
    bool command(string line) {
        string upper = line.toUpperCase();
        if (upper.startsWith("USER ")) {
            this.pendingUser = line.substring(5).trim();
            Net.write(fd, "+OK user accepted\\r\\n");
            return true;
        }
        if (upper.startsWith("PASS ")) { return checkPass(line.substring(5).trim()); }
        if (upper.startsWith("STAT")) {
            if (user == null) { Net.write(fd, "-ERR not logged in\\r\\n"); return true; }
            Net.write(fd, "+OK " + MailStore.countFor(user.username) + " messages\\r\\n");
            return true;
        }
        if (upper.startsWith("RETR ")) {
            if (user == null) { Net.write(fd, "-ERR not logged in\\r\\n"); return true; }
            return retrieve(Str.toInt(line.substring(5).trim()));
        }
        if (upper.startsWith("DELE ")) {
            if (user == null) { Net.write(fd, "-ERR not logged in\\r\\n"); return true; }
            MailStore.remove(user.username, Str.toInt(line.substring(5).trim()));
            Net.write(fd, "+OK deleted\\r\\n");
            return true;
        }
        if (upper.startsWith("QUIT")) {
            Net.write(fd, "+OK bye\\r\\n");
            return false;
        }
        Net.write(fd, "-ERR unknown\\r\\n");
        return true;
    }
    bool checkPass(string pass) {
        User candidate = ConfigurationManager.getUser(pendingUser);
        if (candidate != null && candidate.checkPassword(pass)) {
            this.user = candidate;
            Net.write(fd, "+OK logged in\\r\\n");
        } else {
            Net.write(fd, "-ERR bad login\\r\\n");
        }
        return true;
    }
    bool retrieve(int index) {
        Message m = MailStore.messageFor(user.username, index);
        if (m == null) {
            Net.write(fd, "-ERR no such message\\r\\n");
        } else {
            Net.write(fd, "+OK message follows\\r\\n" + m.body + ".\\r\\n");
        }
        return true;
    }
}
"""

# The sender's loop reads User.forwardAddresses directly — the category-2
# hook for the 1.3.2 update.
_SENDER_121 = """
class SMTPSender {
    void run() {
        while (true) {
            Sys.sleep(25);
            Message m = Spool.take();
            if (m != null) {
                User target = lookupTarget(m);
                if (target != null && target.forwardAddresses != null) {
                    deliverForwards(m, target);
                }
                deliverLocal(m);
                if (Debug.enabled) { Log.note("delivered"); }
            }
        }
    }
    User lookupTarget(Message m) {
        return ConfigurationManager.getUser(localPart(m.recipient));
    }
    string localPart(string address) {
        int at = address.indexOf("@");
        if (at < 0) { return address; }
        return address.substring(0, at);
    }
    void deliverLocal(Message m) {
        MailStore.deposit(new Message(m.sender, localPart(m.recipient), m.body));
    }
    void deliverForwards(Message m, User target) {
        string[] forwards = target.getForwardedAddresses();
        for (int i = 0; i < forwards.length; i = i + 1) {
            string local = localPart(forwards[i]);
            MailStore.deposit(new Message(m.sender, local, m.body));
        }
    }
}
"""

VERSION_121 = "\n".join(
    [
        _MAIN,
        _LOG,
        _DEBUG_121,
        _USER_121,
        _CONFIG_121,
        _MESSAGE_121,
        _SMTP_PROC_121,
        _SMTP_SESSION_121,
        _POP_PROC_121,
        _POP_SESSION_121,
        _SENDER_121,
    ]
)

# ---------------------------------------------------------------------------
# 1.2.2 — method-body-only fixes: address parsing trims properly, RETR
# reports the byte count, load() gains a wizard check. (3 body changes)

_SMTP_SESSION_122 = _SMTP_SESSION_121.replace(
    """    string addressOf(string line) {
        int lt = line.indexOf("<");
        int gt = line.indexOf(">");
        if (lt >= 0 && gt > lt) { return line.substring(lt + 1, gt); }
        int colon = line.indexOf(":");
        return line.substring(colon + 1).trim();
    }""",
    """    string addressOf(string line) {
        int lt = line.indexOf("<");
        int gt = line.indexOf(">");
        if (lt >= 0 && gt > lt) { return line.substring(lt + 1, gt).trim(); }
        int colon = line.indexOf(":");
        if (colon < 0) { return line.trim(); }
        return line.substring(colon + 1).trim();
    }""",
)

_POP_SESSION_122 = _POP_SESSION_121.replace(
    """            Net.write(fd, "+OK message follows\\r\\n" + m.body + ".\\r\\n");""",
    """            Net.write(fd, "+OK " + m.body.length() + " octets\\r\\n" + m.body + ".\\r\\n");""",
)

_CONFIG_122 = _CONFIG_121.replace(
    """        GUIAdmin.render();""",
    """        GUIAdmin.render();
        if (!SetupWizard.completed) { SetupWizard.start(); }""",
)

VERSION_122 = "\n".join(
    [
        _MAIN,
        _LOG,
        _DEBUG_121,
        _USER_121,
        _CONFIG_122,
        _MESSAGE_121,
        _SMTP_PROC_121,
        _SMTP_SESSION_122,
        _POP_PROC_121,
        _POP_SESSION_121.replace(
            '"+OK message follows\\r\\n" + m.body + ".\\r\\n"',
            '"+OK " + m.body.length() + " octets\\r\\n" + m.body + ".\\r\\n"',
        ),
        _SENDER_121,
    ]
)

# ---------------------------------------------------------------------------
# 1.2.3 — field-heavy release: Message gains a timestamp, SmtpSession
# records the HELO name, Pop3Session counts deletions, MailStore tracks
# total deposits. Class updates across four classes.

_MESSAGE_123 = _MESSAGE_121.replace(
    """class Message {
    string sender;
    string recipient;
    string body;
    Message(string s, string r, string b) {
        this.sender = s;
        this.recipient = r;
        this.body = b;
    }
}""",
    """class Message {
    string sender;
    string recipient;
    string body;
    int timestamp;
    Message(string s, string r, string b) {
        this.sender = s;
        this.recipient = r;
        this.body = b;
        this.timestamp = Sys.time();
    }
}""",
).replace(
    """class MailStore {
    static Message[] messages;
    static int count;""",
    """class MailStore {
    static Message[] messages;
    static int count;
    static int totalDeposits;""",
).replace(
    """        MailStore.messages[MailStore.count] = m;
        MailStore.count = MailStore.count + 1;""",
    """        MailStore.messages[MailStore.count] = m;
        MailStore.count = MailStore.count + 1;
        MailStore.totalDeposits = MailStore.totalDeposits + 1;""",
)

_SMTP_SESSION_123 = _SMTP_SESSION_122.replace(
    """    int fd;
    string sender;
    string recipient;
    User authenticated;""",
    """    int fd;
    string sender;
    string recipient;
    string helloName;
    User authenticated;""",
).replace(
    """        if (upper.startsWith("HELO")) {
            Net.write(fd, "250 hello\\r\\n");
            return true;
        }""",
    """        if (upper.startsWith("HELO")) {
            this.helloName = line.substring(4).trim();
            Net.write(fd, "250 hello " + helloName + "\\r\\n");
            return true;
        }""",
)

_POP_SESSION_123_BASE = _POP_SESSION_121.replace(
    '"+OK message follows\\r\\n" + m.body + ".\\r\\n"',
    '"+OK " + m.body.length() + " octets\\r\\n" + m.body + ".\\r\\n"',
)
_POP_SESSION_123 = _POP_SESSION_123_BASE.replace(
    """    int fd;
    User user;
    string pendingUser;""",
    """    int fd;
    User user;
    string pendingUser;
    int deletions;""",
).replace(
    """            MailStore.remove(user.username, Str.toInt(line.substring(5).trim()));
            Net.write(fd, "+OK deleted\\r\\n");""",
    """            MailStore.remove(user.username, Str.toInt(line.substring(5).trim()));
            this.deletions = this.deletions + 1;
            Net.write(fd, "+OK deleted\\r\\n");""",
)

VERSION_123 = "\n".join(
    [
        _MAIN,
        _LOG,
        _DEBUG_121,
        _USER_121,
        _CONFIG_122,
        _MESSAGE_123,
        _SMTP_PROC_121,
        _SMTP_SESSION_123,
        _POP_PROC_121,
        _POP_SESSION_123,
        _SENDER_121,
    ]
)

# ---------------------------------------------------------------------------
# 1.2.4 — two body fixes: STAT reports octet total, spool wraps cleanly.

_POP_SESSION_124 = _POP_SESSION_123.replace(
    """            Net.write(fd, "+OK " + MailStore.countFor(user.username) + " messages\\r\\n");""",
    """            int n = MailStore.countFor(user.username);
            Net.write(fd, "+OK " + n + " " + (n * 80) + "\\r\\n");""",
)

_MESSAGE_124 = _MESSAGE_123.replace(
    """    static Message take() {
        if (Spool.queue == null) { Spool.init(); }
        if (Spool.head == Spool.tail) { return null; }
        Message m = Spool.queue[Spool.head % 64];
        Spool.head = Spool.head + 1;
        return m;
    }""",
    """    static Message take() {
        if (Spool.queue == null) { Spool.init(); }
        if (Spool.head == Spool.tail) { return null; }
        Message m = Spool.queue[Spool.head % 64];
        Spool.queue[Spool.head % 64] = null;
        Spool.head = Spool.head + 1;
        return m;
    }""",
)

VERSION_124 = "\n".join(
    [
        _MAIN,
        _LOG,
        _DEBUG_121,
        _USER_121,
        _CONFIG_122,
        _MESSAGE_124,
        _SMTP_PROC_121,
        _SMTP_SESSION_123,
        _POP_PROC_121,
        _POP_SESSION_124,
        _SENDER_121,
    ]
)

# ---------------------------------------------------------------------------
# 1.3 — the configuration rework (the paper's first FAILING update).
# Deletes GUIAdmin/SetupWizard, adds a file-based configuration system,
# and changes every processor's run() loop to poll it. Those loops never
# leave the stack, so no DSU safe point exists.

_FILECONFIG_13 = """
class FileConfiguration {
    static int reloads;
    static int lastLoadTime;
    static void reloadIfStale() {
        int now = Sys.time();
        if (now - FileConfiguration.lastLoadTime > 5000) {
            FileConfiguration.lastLoadTime = now;
            FileConfiguration.reloads = FileConfiguration.reloads + 1;
            ConfigLoader.parse(Files.read("/etc/jes/users.conf"));
        }
    }
}
class ConfigLoader {
    static void parse(string text) {
        if (text == null) { return; }
        string[] lines = text.split("\\n");
        for (int i = 0; i < lines.length; i = i + 1) {
            string line = lines[i].trim();
            if (line != "" && !line.startsWith("#")) {
                string[] parts = line.split(":");
                if (parts.length >= 2) {
                    ConfigurationManager.addUser(parts[0], parts[1],
                        forwardOf(parts));
                }
            }
        }
    }
    static string forwardOf(string[] parts) {
        if (parts.length >= 3) { return parts[2]; }
        return "";
    }
}
class DomainList {
    static string[] domains;
    static bool isLocal(string domain) {
        if (DomainList.domains == null) { return true; }
        for (int i = 0; i < DomainList.domains.length; i = i + 1) {
            if (DomainList.domains[i] == domain) { return true; }
        }
        return false;
    }
}
"""

_CONFIG_13 = """
class ConfigurationManager {
    static User[] users;
    static int userCount;
    static string domain;
    static void load() {
        ConfigurationManager.domain = "example.org";
        ConfigurationManager.users = new User[16];
        ConfigurationManager.userCount = 0;
        if (!Files.exists("/etc/jes/users.conf")) {
            Files.write("/etc/jes/users.conf",
                "alice:apass\\nbob:bpass:alice@example.org\\ncarol:cpass");
        }
        ConfigLoader.parse(Files.read("/etc/jes/users.conf"));
    }
    static void addUser(string name, string pass, string forwards) {
        User user = loadUser(name, pass, forwards);
        ConfigurationManager.users[ConfigurationManager.userCount] = user;
        ConfigurationManager.userCount = ConfigurationManager.userCount + 1;
    }
    static User loadUser(string name, string pass, string forwards) {
        User user = new User(name, pass);
        if (forwards != "") {
            string[] f = forwards.split(",");
            user.setForwardedAddresses(f);
        }
        return user;
    }
    static User getUser(string name) {
        for (int i = 0; i < ConfigurationManager.userCount; i = i + 1) {
            if (ConfigurationManager.users[i].getUsername() == name) {
                return ConfigurationManager.users[i];
            }
        }
        return null;
    }
}
"""

_SMTP_PROC_13 = _SMTP_PROC_121.replace(
    """        while (true) {
            int fd = Net.accept(lfd);
            User last = handleConnection(fd);""",
    """        while (true) {
            int fd = Net.accept(lfd);
            FileConfiguration.reloadIfStale();
            User last = handleConnection(fd);""",
)

_POP_PROC_13 = _POP_PROC_121.replace(
    """        while (true) {
            int fd = Net.accept(lfd);
            User last = handleConnection(fd);""",
    """        while (true) {
            int fd = Net.accept(lfd);
            FileConfiguration.reloadIfStale();
            User last = handleConnection(fd);""",
)

_SENDER_13 = _SENDER_121.replace(
    """        while (true) {
            Sys.sleep(25);
            Message m = Spool.take();""",
    """        while (true) {
            Sys.sleep(25);
            FileConfiguration.reloadIfStale();
            Message m = Spool.take();""",
)

VERSION_13 = "\n".join(
    [
        _MAIN,
        _LOG,
        _DEBUG_121,
        _USER_121,
        _CONFIG_13,
        _FILECONFIG_13,
        _MESSAGE_124,
        _SMTP_PROC_13,
        _SMTP_SESSION_123,
        _POP_PROC_13,
        _POP_SESSION_124,
        _SENDER_13,
    ]
)

# ---------------------------------------------------------------------------
# 1.3.1 — two body fixes on the new configuration code.

_FILECONFIG_131 = _FILECONFIG_13.replace(
    """    static string forwardOf(string[] parts) {
        if (parts.length >= 3) { return parts[2]; }
        return "";
    }""",
    """    static string forwardOf(string[] parts) {
        if (parts.length >= 3) { return parts[2].trim(); }
        return "";
    }""",
)

_CONFIG_131 = _CONFIG_13.replace(
    """    static User getUser(string name) {
        for (int i = 0; i < ConfigurationManager.userCount; i = i + 1) {
            if (ConfigurationManager.users[i].getUsername() == name) {
                return ConfigurationManager.users[i];
            }
        }
        return null;
    }""",
    """    static User getUser(string name) {
        if (name == null) { return null; }
        for (int i = 0; i < ConfigurationManager.userCount; i = i + 1) {
            if (ConfigurationManager.users[i].getUsername() == name) {
                return ConfigurationManager.users[i];
            }
        }
        return null;
    }""",
)

VERSION_131 = "\n".join(
    [
        _MAIN,
        _LOG,
        _DEBUG_121,
        _USER_121,
        _CONFIG_131,
        _FILECONFIG_131,
        _MESSAGE_124,
        _SMTP_PROC_13,
        _SMTP_SESSION_123,
        _POP_PROC_13,
        _POP_SESSION_124,
        _SENDER_13,
    ]
)

# ---------------------------------------------------------------------------
# 1.3.2 — the paper's running example (Figures 2 and 3): forwarded
# addresses become EmailAddress objects. loadUser and deliverForwards
# change bodies; set/getForwardedAddresses change signatures. The
# processors' run() loops are UNCHANGED but read User fields, so they are
# category-2 and, being infinite, need OSR.

_EMAIL_ADDRESS_132 = """
class EmailAddress {
    string username;
    string domain;
    EmailAddress(string u, string d) {
        this.username = u;
        this.domain = d;
    }
    string render() { return username + "@" + domain; }
}
"""

_USER_132 = """
class User {
    string username;
    string password;
    EmailAddress[] forwardAddresses;
    User(string u, string p) {
        this.username = u;
        this.password = p;
    }
    string getUsername() { return username; }
    bool checkPassword(string p) { return password == p; }
    EmailAddress[] getForwardedAddresses() { return forwardAddresses; }
    void setForwardedAddresses(EmailAddress[] f) { this.forwardAddresses = f; }
}
"""

_CONFIG_132 = _CONFIG_131.replace(
    """    static User loadUser(string name, string pass, string forwards) {
        User user = new User(name, pass);
        if (forwards != "") {
            string[] f = forwards.split(",");
            user.setForwardedAddresses(f);
        }
        return user;
    }""",
    """    static User loadUser(string name, string pass, string forwards) {
        User user = new User(name, pass);
        if (forwards != "") {
            string[] raw = forwards.split(",");
            EmailAddress[] f = new EmailAddress[raw.length];
            for (int i = 0; i < raw.length; i = i + 1) {
                string[] parts = raw[i].split("@", 2);
                if (parts.length == 2) {
                    f[i] = new EmailAddress(parts[0], parts[1]);
                } else {
                    f[i] = new EmailAddress(raw[i], ConfigurationManager.domain);
                }
            }
            user.setForwardedAddresses(f);
        }
        return user;
    }""",
)

_SENDER_132 = _SENDER_13.replace(
    """    void deliverForwards(Message m, User target) {
        string[] forwards = target.getForwardedAddresses();
        for (int i = 0; i < forwards.length; i = i + 1) {
            string local = localPart(forwards[i]);
            MailStore.deposit(new Message(m.sender, local, m.body));
        }
    }""",
    """    void deliverForwards(Message m, User target) {
        EmailAddress[] forwards = target.getForwardedAddresses();
        for (int i = 0; i < forwards.length; i = i + 1) {
            MailStore.deposit(new Message(m.sender, forwards[i].username, m.body));
        }
    }""",
)

VERSION_132 = "\n".join(
    [
        _MAIN,
        _LOG,
        _DEBUG_121,
        _EMAIL_ADDRESS_132,
        _USER_132,
        _CONFIG_132,
        _FILECONFIG_131,
        _MESSAGE_124,
        _SMTP_PROC_13,
        _SMTP_SESSION_123,
        _POP_PROC_13,
        _POP_SESSION_124,
        _SENDER_132,
    ]
)

#: the custom transformer from the paper's Figure 3 (adapted to jmini):
#: rebuild the EmailAddress array from the old strings.
TRANSFORMER_132_USER = """
    static void jvolveClass(User unused) { }
    static void jvolveObject(User to, v131_User from) {
        to.username = from.username;
        to.password = from.password;
        if (from.forwardAddresses == null) {
            to.forwardAddresses = null;
        } else {
            int len = from.forwardAddresses.length;
            to.forwardAddresses = new EmailAddress[len];
            for (int i = 0; i < len; i = i + 1) {
                string[] parts = from.forwardAddresses[i].split("@", 2);
                if (parts.length == 2) {
                    to.forwardAddresses[i] = new EmailAddress(parts[0], parts[1]);
                } else {
                    to.forwardAddresses[i] = new EmailAddress(parts[0], "example.org");
                }
            }
        }
    }
"""

#: the reverse of Figure 3: join each EmailAddress back into the 1.3.1
#: "user@domain" string (a deleted class's stub is read through a cast)
TRANSFORMER_131_USER = """
    static void jvolveClass(User unused) { }
    static void jvolveObject(User to, v132_User from) {
        to.username = from.username;
        to.password = from.password;
        if (from.forwardAddresses == null) {
            to.forwardAddresses = null;
        } else {
            int len = from.forwardAddresses.length;
            to.forwardAddresses = new string[len];
            for (int i = 0; i < len; i = i + 1) {
                v132_EmailAddress address =
                    (v132_EmailAddress) from.forwardAddresses[i];
                to.forwardAddresses[i] = address.username + "@" + address.domain;
            }
        }
    }
"""

# ---------------------------------------------------------------------------
# 1.3.3 — small fixes plus a Debug verbosity knob. Debug is read (GETSTATIC)
# by every run() loop, so this class update makes the loops category-2
# again: OSR is used, as the paper reports for this update.

_DEBUG_133 = """
class Debug {
    static bool enabled = true;
    static int level;
    static bool verbose;
}
"""

_FILECONFIG_133 = _FILECONFIG_131.replace(
    """        if (now - FileConfiguration.lastLoadTime > 5000) {""",
    """        if (FileConfiguration.lastLoadTime == 0 ||
                now - FileConfiguration.lastLoadTime > 5000) {""",
)

_POP_SESSION_133 = _POP_SESSION_124.replace(
    """        if (upper.startsWith("QUIT")) {
            Net.write(fd, "+OK bye\\r\\n");
            return false;
        }""",
    """        if (upper.startsWith("NOOP")) {
            Net.write(fd, "+OK\\r\\n");
            return true;
        }
        if (upper.startsWith("QUIT")) {
            Net.write(fd, "+OK bye\\r\\n");
            return false;
        }""",
)

VERSION_133 = "\n".join(
    [
        _MAIN,
        _LOG,
        _DEBUG_133,
        _EMAIL_ADDRESS_132,
        _USER_132,
        _CONFIG_132,
        _FILECONFIG_133,
        _MESSAGE_124,
        _SMTP_PROC_13,
        _SMTP_SESSION_123,
        _POP_PROC_13,
        _POP_SESSION_133,
        _SENDER_132,
    ]
)

# ---------------------------------------------------------------------------
# 1.3.4 — FileConfiguration gains bookkeeping fields; several body tweaks.

_FILECONFIG_134 = _FILECONFIG_133.replace(
    """class FileConfiguration {
    static int reloads;
    static int lastLoadTime;""",
    """class FileConfiguration {
    static int reloads;
    static int lastLoadTime;
    static int parseErrors;
    static string configPath;""",
).replace(
    """            FileConfiguration.reloads = FileConfiguration.reloads + 1;
            ConfigLoader.parse(Files.read("/etc/jes/users.conf"));""",
    """            FileConfiguration.reloads = FileConfiguration.reloads + 1;
            if (FileConfiguration.configPath == null) {
                FileConfiguration.configPath = "/etc/jes/users.conf";
            }
            ConfigLoader.parse(Files.read(FileConfiguration.configPath));""",
)

_SMTP_SESSION_134 = _SMTP_SESSION_123.replace(
    """        if (upper.startsWith("QUIT")) {
            Net.write(fd, "221 bye\\r\\n");
            return false;
        }""",
    """        if (upper.startsWith("RSET")) {
            this.sender = null;
            this.recipient = null;
            Net.write(fd, "250 reset\\r\\n");
            return true;
        }
        if (upper.startsWith("QUIT")) {
            Net.write(fd, "221 bye\\r\\n");
            return false;
        }""",
)

VERSION_134 = "\n".join(
    [
        _MAIN,
        _LOG,
        _DEBUG_133,
        _EMAIL_ADDRESS_132,
        _USER_132,
        _CONFIG_132,
        _FILECONFIG_134,
        _MESSAGE_124,
        _SMTP_PROC_13,
        _SMTP_SESSION_134,
        _POP_PROC_13,
        _POP_SESSION_133,
        _SENDER_132,
    ]
)

# ---------------------------------------------------------------------------
# 1.4 — feature release: message ids (new class + Message field), a relay
# policy class, and a signature change to MailStore.deposit.

_MESSAGEID_14 = """
class MessageIdGenerator {
    static int counter;
    static string next() {
        MessageIdGenerator.counter = MessageIdGenerator.counter + 1;
        return "msg-" + MessageIdGenerator.counter;
    }
}
class RelayPolicy {
    static bool allowRelay;
    static bool accepts(string recipient) {
        if (RelayPolicy.allowRelay) { return true; }
        return recipient.endsWith("example.org") || recipient.indexOf("@") < 0;
    }
}
"""

_MESSAGE_14 = _MESSAGE_124.replace(
    """class Message {
    string sender;
    string recipient;
    string body;
    int timestamp;
    Message(string s, string r, string b) {
        this.sender = s;
        this.recipient = r;
        this.body = b;
        this.timestamp = Sys.time();
    }
}""",
    """class Message {
    string sender;
    string recipient;
    string body;
    int timestamp;
    string messageId;
    Message(string s, string r, string b) {
        this.sender = s;
        this.recipient = r;
        this.body = b;
        this.timestamp = Sys.time();
        this.messageId = MessageIdGenerator.next();
    }
}""",
).replace(
    """    static void deposit(Message m) {
        if (MailStore.messages == null) { MailStore.init(); }
        MailStore.messages[MailStore.count] = m;
        MailStore.count = MailStore.count + 1;
        MailStore.totalDeposits = MailStore.totalDeposits + 1;
    }""",
    """    static void deposit(Message m, bool urgent) {
        if (MailStore.messages == null) { MailStore.init(); }
        MailStore.messages[MailStore.count] = m;
        MailStore.count = MailStore.count + 1;
        MailStore.totalDeposits = MailStore.totalDeposits + 1;
        if (urgent) { MailStore.urgentCount = MailStore.urgentCount + 1; }
    }""",
).replace(
    """class MailStore {
    static Message[] messages;
    static int count;
    static int totalDeposits;""",
    """class MailStore {
    static Message[] messages;
    static int count;
    static int totalDeposits;
    static int urgentCount;""",
)

_SENDER_14 = _SENDER_132.replace(
    """    void deliverLocal(Message m) {
        MailStore.deposit(new Message(m.sender, localPart(m.recipient), m.body));
    }""",
    """    void deliverLocal(Message m) {
        MailStore.deposit(new Message(m.sender, localPart(m.recipient), m.body), false);
    }""",
).replace(
    """        EmailAddress[] forwards = target.getForwardedAddresses();
        for (int i = 0; i < forwards.length; i = i + 1) {
            MailStore.deposit(new Message(m.sender, forwards[i].username, m.body));
        }""",
    """        EmailAddress[] forwards = target.getForwardedAddresses();
        for (int i = 0; i < forwards.length; i = i + 1) {
            MailStore.deposit(new Message(m.sender, forwards[i].username, m.body), false);
        }""",
)

_SMTP_SESSION_14 = _SMTP_SESSION_134.replace(
    """        if (upper.startsWith("RCPT TO:")) {
            this.recipient = addressOf(line);
            Net.write(fd, "250 ok\\r\\n");
            return true;
        }""",
    """        if (upper.startsWith("RCPT TO:")) {
            string address = addressOf(line);
            if (!RelayPolicy.accepts(address)) {
                Net.write(fd, "550 relaying denied\\r\\n");
                return true;
            }
            this.recipient = address;
            Net.write(fd, "250 ok\\r\\n");
            return true;
        }""",
)

VERSION_14 = "\n".join(
    [
        _MAIN,
        _LOG,
        _DEBUG_133,
        _EMAIL_ADDRESS_132,
        _USER_132,
        _CONFIG_132,
        _FILECONFIG_134,
        _MESSAGEID_14,
        _MESSAGE_14,
        _SMTP_PROC_13,
        _SMTP_SESSION_14,
        _POP_PROC_13,
        _POP_SESSION_133,
        _SENDER_14,
    ]
)

#: release history in order
VERSIONS = {
    "1.2.1": VERSION_121,
    "1.2.2": VERSION_122,
    "1.2.3": VERSION_123,
    "1.2.4": VERSION_124,
    "1.3": VERSION_13,
    "1.3.1": VERSION_131,
    "1.3.2": VERSION_132,
    "1.3.3": VERSION_133,
    "1.3.4": VERSION_134,
    "1.4": VERSION_14,
}

MAIN_CLASS = "JavaEmailServer"

#: custom transformers per update (defaults suffice elsewhere)
TRANSFORMER_OVERRIDES = {
    ("1.3.1", "1.3.2"): {"User": TRANSFORMER_132_USER},
    ("1.3.2", "1.3.1"): {"User": TRANSFORMER_131_USER},
}
